#include "core/group_tables.h"

#include <algorithm>
#include <stdexcept>

namespace wormcast {

CircuitTable::CircuitTable(std::vector<HostId> members)
    : order_(std::move(members)) {
  if (order_.empty()) throw std::invalid_argument("empty multicast group");
  std::sort(order_.begin(), order_.end());
  if (std::adjacent_find(order_.begin(), order_.end()) != order_.end())
    throw std::invalid_argument("duplicate member in multicast group");
}

bool CircuitTable::contains(HostId h) const {
  return std::binary_search(order_.begin(), order_.end(), h);
}

HostId CircuitTable::next(HostId h) const {
  const auto it = std::lower_bound(order_.begin(), order_.end(), h);
  if (it == order_.end() || *it != h)
    throw std::invalid_argument("host not in group");
  const auto next_it = it + 1;
  return next_it == order_.end() ? order_.front() : *next_it;
}

HostId CircuitTable::successor_of(HostId h) const {
  const auto it = std::upper_bound(order_.begin(), order_.end(), h);
  return it == order_.end() ? order_.front() : *it;
}

bool CircuitTable::remove(HostId h) {
  const auto it = std::lower_bound(order_.begin(), order_.end(), h);
  if (it == order_.end() || *it != h) return false;
  if (order_.size() == 1)
    throw std::logic_error("cannot splice the last circuit member");
  order_.erase(it);  // sorted order (and hence the one wrap reversal) survives
  return true;
}

HostId CircuitTable::insert(HostId h) {
  const auto it = std::lower_bound(order_.begin(), order_.end(), h);
  if (it != order_.end() && *it == h) return kNoHost;
  const auto idx = static_cast<std::size_t>(it - order_.begin());
  order_.insert(it, h);
  // Predecessor on the circuit: the element before the insertion point,
  // wrapping to the (new) highest when the joiner became the lowest.
  return idx == 0 ? order_.back() : order_[idx - 1];
}

int CircuitTable::circuit_hop_length(const UpDownRouting& routing) const {
  if (order_.size() < 2) return 0;
  int total = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const HostId from = order_[i];
    const HostId to = order_[(i + 1) % order_.size()];
    total += routing.hop_count(from, to);
  }
  return total;
}

TreeTable::TreeTable(std::vector<HostId> members, const UpDownRouting& routing,
                     int max_fanout)
    : members_(std::move(members)) {
  if (members_.empty()) throw std::invalid_argument("empty multicast group");
  std::sort(members_.begin(), members_.end());
  if (std::adjacent_find(members_.begin(), members_.end()) != members_.end())
    throw std::invalid_argument("duplicate member in multicast group");
  root_ = members_.front();
  parent_[root_] = kNoHost;
  children_[root_] = {};
  for (std::size_t i = 1; i < members_.size(); ++i) {
    const HostId m = members_[i];
    HostId best = kNoHost;
    int best_cost = 0;
    for (std::size_t j = 0; j < i; ++j) {
      const HostId candidate = members_[j];
      if (max_fanout > 0 &&
          static_cast<int>(children_[candidate].size()) >= max_fanout)
        continue;
      const int c = routing.hop_count(candidate, m);
      if (best == kNoHost || c < best_cost) {
        best = candidate;
        best_cost = c;
      }
    }
    if (best == kNoHost)
      throw std::logic_error("tree fanout cap leaves no eligible parent");
    parent_[m] = best;
    children_[best].push_back(m);
    children_[m] = {};
  }
  // Children naturally accumulate in ascending ID order (insertion order).
}

bool TreeTable::contains(HostId h) const {
  return std::binary_search(members_.begin(), members_.end(), h);
}

HostId TreeTable::parent(HostId h) const {
  const auto it = parent_.find(h);
  if (it == parent_.end()) throw std::invalid_argument("host not in group");
  return it->second;
}

const std::vector<HostId>& TreeTable::children(HostId h) const {
  const auto it = children_.find(h);
  if (it == children_.end()) throw std::invalid_argument("host not in group");
  return it->second;
}

TreeTable::RemovalResult TreeTable::remove_member(HostId h,
                                                  const UpDownRouting& routing,
                                                  int max_fanout) {
  RemovalResult result;
  const auto it = std::lower_bound(members_.begin(), members_.end(), h);
  if (it == members_.end() || *it != h) return result;
  if (members_.size() == 1)
    throw std::logic_error("cannot remove the last tree member");
  result.removed = true;
  members_.erase(it);

  std::vector<HostId> orphans = children_[h];
  children_.erase(h);
  if (h == root_) {
    // The new root is the lowest surviving ID. Its old parent had an even
    // lower ID, and only the dead root qualified — so the new root is
    // always a direct child of the dead root and already orphaned.
    root_ = members_.front();
    parent_[root_] = kNoHost;
    orphans.erase(std::find(orphans.begin(), orphans.end(), root_));
    result.root_promoted = true;
  } else {
    // Detach the dead node from its parent's child list.
    std::vector<HostId>& siblings = children_[parent_.at(h)];
    siblings.erase(std::find(siblings.begin(), siblings.end(), h));
  }
  parent_.erase(h);

  // Re-attach each orphaned subtree at its (surviving) root: greedy
  // min-hop parent among lower-ID members with fanout slack, exactly the
  // construction rule, so parent < child keeps holding.
  for (const HostId o : orphans) {
    HostId best = kNoHost;
    int best_cost = 0;
    for (bool relax_cap : {false, true}) {
      for (const HostId candidate : members_) {
        if (candidate >= o) break;  // members_ ascending; need parent < child
        if (!relax_cap && max_fanout > 0 &&
            static_cast<int>(children_[candidate].size()) >= max_fanout)
          continue;
        const int c = routing.hop_count(candidate, o);
        if (best == kNoHost || c < best_cost) {
          best = candidate;
          best_cost = c;
        }
      }
      if (best != kNoHost) break;  // cap relaxed only when every slot is full
    }
    parent_[o] = best;
    std::vector<HostId>& kids = children_[best];
    kids.insert(std::lower_bound(kids.begin(), kids.end(), o), o);
    result.reattached.emplace_back(o, best);
    ++result.subtrees_reparented;
  }
  return result;
}

TreeTable::AddResult TreeTable::add_member(HostId h,
                                           const UpDownRouting& routing,
                                           int max_fanout) {
  AddResult result;
  const auto it = std::lower_bound(members_.begin(), members_.end(), h);
  if (it != members_.end() && *it == h) return result;
  members_.insert(it, h);
  result.added = true;
  children_[h] = {};
  if (h < root_) {
    // New-root adoption: the joiner takes the root slot and the old root
    // becomes its only child. Every existing parent/child edge survives,
    // so in-flight relays through the old root still reach its subtree.
    parent_[h] = kNoHost;
    parent_[root_] = h;
    children_[h].push_back(root_);
    root_ = h;
    result.became_root = true;
    return result;
  }
  // Greedy construction rule: min-hop lower-ID parent with fanout slack;
  // the cap is relaxed only when every candidate is full.
  HostId best = kNoHost;
  int best_cost = 0;
  for (bool relax_cap : {false, true}) {
    for (const HostId candidate : members_) {
      if (candidate >= h) break;  // members_ ascending; need parent < child
      if (!relax_cap && max_fanout > 0 &&
          static_cast<int>(children_[candidate].size()) >= max_fanout)
        continue;
      const int c = routing.hop_count(candidate, h);
      if (best == kNoHost || c < best_cost) {
        best = candidate;
        best_cost = c;
      }
    }
    if (best != kNoHost) break;
  }
  parent_[h] = best;
  std::vector<HostId>& kids = children_[best];
  kids.insert(std::lower_bound(kids.begin(), kids.end(), h), h);
  result.parent = best;
  return result;
}

int TreeTable::depth() const {
  int max_depth = 0;
  for (const HostId m : members_) {
    int d = 0;
    for (HostId n = m; n != root_; n = parent_.at(n)) ++d;
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

GroupTables::GroupTables(const std::vector<MulticastGroupSpec>& specs,
                         const UpDownRouting& routing, int max_tree_fanout)
    : routing_(routing), max_tree_fanout_(max_tree_fanout) {
  for (const MulticastGroupSpec& spec : specs) {
    circuits_.emplace(spec.id, CircuitTable(spec.members));
    trees_.emplace(spec.id, TreeTable(spec.members, routing, max_tree_fanout));
  }
}

std::vector<GroupId> GroupTables::groups_containing(HostId h) const {
  std::vector<GroupId> out;
  for (const auto& [g, circuit] : circuits_)
    if (circuit.contains(h)) out.push_back(g);
  std::sort(out.begin(), out.end());
  return out;
}

GroupTables::RepairStats GroupTables::remove_member(HostId h) {
  RepairStats stats;
  for (auto& [g, circuit] : circuits_) {
    if (!circuit.contains(h)) continue;
    const RepairStats one = remove_member_from(g, h);
    stats.circuits_spliced += one.circuits_spliced;
    stats.subtrees_reparented += one.subtrees_reparented;
    stats.roots_promoted += one.roots_promoted;
    stats.reattachments.insert(stats.reattachments.end(),
                               one.reattachments.begin(),
                               one.reattachments.end());
  }
  return stats;
}

GroupTables::RepairStats GroupTables::remove_member_from(GroupId g, HostId h) {
  RepairStats stats;
  auto it = circuits_.find(g);
  if (it == circuits_.end()) throw std::invalid_argument("unknown group");
  CircuitTable& circuit = it->second;
  if (!circuit.contains(h)) return stats;
  if (circuit.size() == 1) return stats;  // sole member: nothing left to heal
  circuit.remove(h);
  ++stats.circuits_spliced;
  const TreeTable::RemovalResult r =
      trees_.at(g).remove_member(h, routing_, max_tree_fanout_);
  stats.subtrees_reparented += r.subtrees_reparented;
  if (r.root_promoted) ++stats.roots_promoted;
  for (const auto& [orphan, parent] : r.reattached)
    stats.reattachments.push_back({g, orphan, parent});
  return stats;
}

GroupTables::JoinResult GroupTables::add_member(GroupId g, HostId h) {
  JoinResult result;
  auto it = circuits_.find(g);
  if (it == circuits_.end()) throw std::invalid_argument("unknown group");
  CircuitTable& circuit = it->second;
  if (circuit.contains(h)) return result;
  result.joined = true;
  result.circuit_pred = circuit.insert(h);
  const TreeTable::AddResult a =
      trees_.at(g).add_member(h, routing_, max_tree_fanout_);
  result.became_root = a.became_root;
  result.tree_parent = a.parent;
  return result;
}

const CircuitTable& GroupTables::circuit(GroupId g) const {
  const auto it = circuits_.find(g);
  if (it == circuits_.end()) throw std::invalid_argument("unknown group");
  return it->second;
}

const TreeTable& GroupTables::tree(GroupId g) const {
  const auto it = trees_.find(g);
  if (it == trees_.end()) throw std::invalid_argument("unknown group");
  return it->second;
}

bool GroupTables::is_member(GroupId g, HostId h) const {
  return circuit(g).contains(h);
}

int GroupTables::group_size(GroupId g) const { return circuit(g).size(); }

}  // namespace wormcast
