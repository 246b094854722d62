#include "ip_mapping.h"

#include <gtest/gtest.h>

namespace wormcast {
namespace {

TEST(IpMapping, ClassDDetection) {
  EXPECT_TRUE(is_class_d(ipv4(224, 0, 0, 1)));
  EXPECT_TRUE(is_class_d(ipv4(239, 255, 255, 255)));
  EXPECT_FALSE(is_class_d(ipv4(223, 255, 255, 255)));
  EXPECT_FALSE(is_class_d(ipv4(240, 0, 0, 0)));
  EXPECT_FALSE(is_class_d(ipv4(10, 0, 0, 1)));
}

TEST(IpMapping, LowEightBitsSelectTheGroup) {
  EXPECT_EQ(myrinet_group_of(ipv4(224, 2, 127, 61)), 61);
  EXPECT_EQ(myrinet_group_of(ipv4(239, 9, 9, 0)), 0);
  EXPECT_EQ(myrinet_group_of(ipv4(224, 0, 0, 254)), 254);
}

TEST(IpMapping, Group255IsBroadcast) {
  EXPECT_EQ(myrinet_group_of(ipv4(224, 0, 0, 255)), kBroadcastGroup);
}

TEST(IpMapping, NonMulticastThrows) {
  EXPECT_THROW((void)myrinet_group_of(ipv4(192, 168, 0, 1)),
               std::invalid_argument);
}

TEST(IpMapping, CollisionsAreDetected) {
  // Nonunique low 8 bits are allowed; receivers filter (Section 8.1).
  EXPECT_TRUE(groups_collide(ipv4(224, 1, 1, 7), ipv4(225, 9, 9, 7)));
  EXPECT_FALSE(groups_collide(ipv4(224, 1, 1, 7), ipv4(224, 1, 1, 8)));
  EXPECT_FALSE(groups_collide(ipv4(224, 1, 1, 7), ipv4(224, 1, 1, 7)));
}

}  // namespace
}  // namespace wormcast
