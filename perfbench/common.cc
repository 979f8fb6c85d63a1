#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>


namespace perfbench {

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void Report::E2E(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  per_layer.push_back({name, value, unit});
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(q / 100.0 * n + 0.999999);
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Digest::AddBytes(const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Usage ReadUsage() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minflt = ru.ru_minflt;
  u.utime_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.stime_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  return u;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks CpuTicks::Now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user .. steal
  in >> cpu;
  CpuTicks t;
  for (double& x : v) {
    in >> x;
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

double CpuTicks::StealPctSince(const CpuTicks& e) const {
  return total > e.total ? 100.0 * (steal - e.steal) / (total - e.total)
                         : 0.0;
}

Counters Counters::Now() {
  Counters c;
  c.pool = elda::mem::Pool::Global().Stats();
  c.par = elda::par::Stats();
  c.usage = ReadUsage();
  return c;
}

Counters Counters::Delta(const Counters& e) const {
  Counters d;
  d.pool.acquires = pool.acquires - e.pool.acquires;
  d.pool.hits = pool.hits - e.pool.hits;
  d.pool.releases = pool.releases - e.pool.releases;
  d.pool.bytes_allocated = pool.bytes_allocated - e.pool.bytes_allocated;
  d.pool.bytes_cached = pool.bytes_cached;
  d.pool.huge_acquires = pool.huge_acquires - e.pool.huge_acquires;
  d.pool.small_acquires = pool.small_acquires - e.pool.small_acquires;
  d.par.parallel_dispatches =
      par.parallel_dispatches - e.par.parallel_dispatches;
  d.par.chunks = par.chunks - e.par.chunks;
  d.par.inline_runs = par.inline_runs - e.par.inline_runs;
  d.usage.minflt = usage.minflt - e.usage.minflt;
  d.usage.utime_s = usage.utime_s - e.usage.utime_s;
  d.usage.stime_s = usage.stime_s - e.usage.stime_s;
  return d;
}

void Counters::Accumulate(const Counters& d) {
  pool.acquires += d.pool.acquires;
  pool.hits += d.pool.hits;
  pool.bytes_allocated += d.pool.bytes_allocated;
  usage.minflt += d.usage.minflt;
  usage.utime_s += d.usage.utime_s;
  usage.stime_s += d.usage.stime_s;
}

}  // namespace perfbench
