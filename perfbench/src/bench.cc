#include "bench.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

HostCpu ReadHostCpu() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  unsigned long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                     irq = 0, softirq = 0, steal = 0;
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &user, &nice, &system, &idle, &iowait, &irq,
                            &softirq, &steal);
  std::fclose(f);
  if (n != 8) return out;
  const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  out.steal_s = static_cast<double>(steal) * tick;
  out.busy_s =
      static_cast<double>(user + nice + system + irq + softirq + steal) * tick;
  return out;
}

double StealShare(const HostCpu& a, const HostCpu& b) {
  const double busy = b.busy_s - a.busy_s;
  return busy > 0.0 ? (b.steal_s - a.steal_s) / busy : 0.0;
}

void Digest::Add(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

}  // namespace perfbench
