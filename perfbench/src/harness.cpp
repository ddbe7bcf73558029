#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

double quantile(std::span<const Reservoir* const> parts, double q) {
  std::vector<std::pair<std::uint64_t, double>> all;
  double total = 0;
  for (const Reservoir* r : parts) {
    const auto kept = r->kept();
    if (kept.empty()) continue;
    const double w = static_cast<double>(r->seen()) /
                     static_cast<double>(kept.size());
    for (const std::uint64_t v : kept) all.emplace_back(v, w);
    total += static_cast<double>(r->seen());
  }
  if (all.empty()) return 0;
  std::sort(all.begin(), all.end());
  const double target = q * total;
  double acc = 0;
  for (const auto& [v, w] : all) {
    acc += w;
    if (acc >= target) return static_cast<double>(v);
  }
  return static_cast<double>(all.back().first);
}

std::uint64_t seen(std::span<const Reservoir* const> parts) {
  std::uint64_t n = 0;
  for (const Reservoir* r : parts) n += r->seen();
  return n;
}

double cpu_seconds() noexcept {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() noexcept {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mb() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
