/* PC sampler for scripts/layer_profile.py, loaded with LD_PRELOAD.
 *
 *   cc -O2 -shared -fPIC -o pc_sampler.so scripts/pc_sampler.c -lrt
 *   SANFAULT_PC_SAMPLES=out.txt LD_PRELOAD=./pc_sampler.so ./perfbench ...
 *
 * A timer on CLOCK_MONOTONIC (timer_create) sends SIGPROF every 100 us; the
 * handler records the interrupted program counter in a preallocated buffer.
 * ITIMER_PROF is not used: on a virtual machine it can fire far less often
 * than asked (every 3.7 ms for a 100 us request was seen). The target is
 * single-threaded and busy, so wall-clock ticks are CPU ticks.
 *
 * At exit the sampler writes, to $SANFAULT_PC_SAMPLES:
 *   period_us <n>
 *   dropped <n>               (samples past the buffer's end)
 *   object <lo> <hi> <base> <path>   (one per executable segment, hex)
 *   pc <address> <count>      (hex address, one line per distinct PC)
 * layer_profile.py maps each PC to its object and symbol (nm) and charges
 * it to a layer. Without SANFAULT_PC_SAMPLES the library does nothing.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAPACITY ((size_t)1 << 23) /* 64 MB of address space, touched as used */
#define PERIOD_US 100L              /* sampling period */

static uint64_t *pcs;
static size_t count;
static size_t dropped;
static timer_t timer;
static int armed;
static const char *out_path;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  const ucontext_t *uc = (const ucontext_t *)ctx;
#if defined(__x86_64__)
  const uint64_t pc = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uint64_t pc = (uint64_t)uc->uc_mcontext.pc;
#else
  const uint64_t pc = 0;
  (void)uc;
#endif
  if (count < CAPACITY) {
    pcs[count++] = pc;
  } else {
    ++dropped;
  }
}

__attribute__((constructor)) static void start(void) {
  out_path = getenv("SANFAULT_PC_SAMPLES");
  if (out_path == NULL || *out_path == '\0') return;
  void *buf = mmap(NULL, CAPACITY * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) {
    perror("pc_sampler: mmap");
    return;
  }
  pcs = buf;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    perror("pc_sampler: sigaction");
    return;
  }
  struct sigevent sev;
  memset(&sev, 0, sizeof sev);
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0) {
    perror("pc_sampler: timer_create");
    return;
  }
  struct itimerspec its;
  its.it_interval.tv_sec = 0;
  its.it_interval.tv_nsec = PERIOD_US * 1000;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, NULL) != 0) {
    perror("pc_sampler: timer_settime");
    return;
  }
  armed = 1;
}

static int write_object(struct dl_phdr_info *info, size_t size, void *arg) {
  (void)size;
  FILE *f = arg;
  char exe[4096];
  const char *name = info->dlpi_name;
  if (name == NULL || *name == '\0') {
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0) return 0;
    exe[n] = '\0';
    name = exe;
  }
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || (ph->p_flags & PF_X) == 0) continue;
    const uint64_t lo = (uint64_t)info->dlpi_addr + ph->p_vaddr;
    fprintf(f, "object %llx %llx %llx %s\n", (unsigned long long)lo,
            (unsigned long long)(lo + ph->p_memsz),
            (unsigned long long)info->dlpi_addr, name);
  }
  return 0;
}

static int by_value(const void *a, const void *b) {
  const uint64_t x = *(const uint64_t *)a;
  const uint64_t y = *(const uint64_t *)b;
  return x < y ? -1 : x > y;
}

__attribute__((destructor)) static void finish(void) {
  if (!armed) return;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  FILE *f = fopen(out_path, "w");
  if (f == NULL) {
    perror("pc_sampler: fopen");
    return;
  }
  fprintf(f, "period_us %ld\ndropped %zu\n", PERIOD_US, dropped);
  dl_iterate_phdr(write_object, f);
  qsort(pcs, count, sizeof pcs[0], by_value);
  for (size_t i = 0; i < count;) {
    size_t j = i;
    while (j < count && pcs[j] == pcs[i]) ++j;
    fprintf(f, "pc %llx %zu\n", (unsigned long long)pcs[i], j - i);
    i = j;
  }
  fclose(f);
}
