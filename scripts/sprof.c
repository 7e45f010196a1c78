/* A sampling profiler small enough to preload: per-layer attribution
 * without rebuilding with -pg (which changes inlining).
 *
 * Load with LD_PRELOAD=sprof.so and set SPROF_OUT=<path prefix>. The
 * constructor arms ITIMER_PROF for this process; each SIGPROF stores the
 * interrupted program counter in a buffer allocated up front, indexed by an
 * atomic counter (multi-threaded programs take the signal on any thread).
 * An atexit hook stops the timer and writes <prefix>.<pid>: one line per
 * sample, an offset from the executable's load address ("x <hex>"), or the
 * shared object and nearest dynamic symbol ("l <object> <symbol>").
 * scripts/sample_profile.py builds this file, runs a command under it and
 * symbolizes the result.
 *
 * The timer asks for a sample every millisecond; samples still arrive at the
 * kernel tick. The buffer holds kMaxSamples; later samples are counted as
 * dropped. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sprof reads the interrupted RIP: x86-64 Linux only"
#endif

enum { kMaxSamples = 1 << 20, kIntervalUsec = 1000 };

static uintptr_t *g_pcs;
static atomic_size_t g_n;
static char g_out[4096];

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = (const ucontext_t *)ctx;
  const size_t i = atomic_fetch_add_explicit(&g_n, 1, memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

/* The executable is the first object dl_iterate_phdr reports. */
struct exe_range {
  uintptr_t base, lo, hi;
  int found;
};

static int find_exe(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  struct exe_range *r = (struct exe_range *)data;
  r->base = info->dlpi_addr;
  r->lo = UINTPTR_MAX;
  r->hi = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr) *p = &info->dlpi_phdr[i];
    if (p->p_type != PT_LOAD) continue;
    const uintptr_t lo = info->dlpi_addr + p->p_vaddr;
    if (lo < r->lo) r->lo = lo;
    if (lo + p->p_memsz > r->hi) r->hi = lo + p->p_memsz;
  }
  r->found = 1;
  return 1; /* stop after the first object */
}

static void write_samples(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  const size_t taken = atomic_load(&g_n);
  const size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  char path[4200];
  snprintf(path, sizeof path, "%s.%ld", g_out, (long)getpid());
  FILE *f = fopen(path, "w");
  if (f == NULL) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  struct exe_range r = {0, 0, 0, 0};
  dl_iterate_phdr(find_exe, &r);
  fprintf(f, "# sprof samples=%zu dropped=%zu exe=%s\n", kept, taken - kept,
          exe);
  for (size_t i = 0; i < kept; ++i) {
    const uintptr_t pc = g_pcs[i];
    if (r.found && pc >= r.lo && pc < r.hi) {
      fprintf(f, "x %lx\n", (unsigned long)(pc - r.base));
      continue;
    }
    Dl_info d;
    if (dladdr((void *)pc, &d) && d.dli_fname != NULL) {
      const char *slash = strrchr(d.dli_fname, '/');
      fprintf(f, "l %s %s\n", slash ? slash + 1 : d.dli_fname,
              d.dli_sname ? d.dli_sname : "?");
    } else {
      fputs("l ? ?\n", f);
    }
  }
  fclose(f);
}

__attribute__((constructor)) static void sprof_start(void) {
  const char *out = getenv("SPROF_OUT");
  if (out == NULL || *out == '\0') return;
  snprintf(g_out, sizeof g_out, "%s", out);
  g_pcs = (uintptr_t *)calloc(kMaxSamples, sizeof *g_pcs);
  if (g_pcs == NULL) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  atexit(write_samples);
  const struct timeval every = {0, kIntervalUsec};
  const struct itimerval on = {every, every};
  setitimer(ITIMER_PROF, &on, NULL);
}
