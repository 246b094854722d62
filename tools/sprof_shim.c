// Statistical CPU profiler, loaded with LD_PRELOAD by tools/sprof.
//
// An ITIMER_PROF timer delivers SIGPROF after every SPROF_US microseconds
// of the process's CPU time (default 1000); the handler stores the
// interrupted instruction pointer. At exit each sample is mapped to the
// loaded object that holds it and written to SPROF_DIR/sprof.<pid> as
// "<object path>\t<address relative to its load base, hex>", the form
// nm and addr2line read. A program that ends by a signal or _exit()
// writes nothing. x86-64 Linux only.
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define kMaxSamples (1u << 20)

static uintptr_t samples[kMaxSamples];
static unsigned sample_count;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  const unsigned i = __atomic_fetch_add(&sample_count, 1, __ATOMIC_RELAXED);
  if (i < kMaxSamples) samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sprof_start(void) {
  const char* dir = getenv("SPROF_DIR");
  if (dir == NULL) return;
  const char* us = getenv("SPROF_US");
  long period = us != NULL ? atol(us) : 1000;
  if (period <= 0) period = 1000;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval timer;
  timer.it_interval.tv_sec = period / 1000000;
  timer.it_interval.tv_usec = period % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

struct Lookup {
  uintptr_t pc;
  const char* path;
  uintptr_t base;
};

static int find_object(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  struct Lookup* l = (struct Lookup*)data;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
    if (l->pc >= lo && l->pc < lo + ph->p_memsz) {
      l->path = info->dlpi_name;
      l->base = info->dlpi_addr;
      return 1;
    }
  }
  return 0;
}

__attribute__((destructor)) static void sprof_dump(void) {
  const char* dir = getenv("SPROF_DIR");
  if (dir == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[n > 0 ? n : 0] = '\0';
  char path[4096];
  snprintf(path, sizeof path, "%s/sprof.%d", dir, (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  unsigned count = sample_count;
  if (count > kMaxSamples) count = kMaxSamples;
  for (unsigned i = 0; i < count; ++i) {
    struct Lookup l = {samples[i], NULL, 0};
    if (!dl_iterate_phdr(find_object, &l)) continue;
    const char* object = (l.path != NULL && l.path[0] != '\0') ? l.path : exe;
    fprintf(out, "%s\t%lx\n", object, (unsigned long)(l.pc - l.base));
  }
  fclose(out);
}
