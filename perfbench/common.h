// Shared plumbing for the perfbench workloads: run arguments, the result
// report every workload fills, percentile helpers, output digests and the
// process/library counters the per-layer metrics are derived from.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/pool.h"
#include "par/par.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t0) {
  return SecondsBetween(t0, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured time budget of the run
  bool trace = false;
  std::string work_dir;   // scratch space inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `correct` turns false on the first failed
// check; `errors` says which.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string input_digest;   // hash of the generated inputs
  std::string output_digest;  // hash of the checked outputs
  std::string threads;  // the workload's thread setting, for the fingerprint

  void Check(bool ok, const std::string& what);
  void E2E(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
};

// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 when
// empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// True when both hold the same floats, bit for bit.
bool SameBits(const std::vector<float>& a, const std::vector<float>& b);

// FNV-1a over the exact bits of what is added, so two digests agree only
// when every float agrees bitwise.
class Digest {
 public:
  void AddBytes(const void* data, size_t size);
  void AddFloat(float v) { AddBytes(&v, sizeof(v)); }
  void AddFloats(const std::vector<float>& v) {
    AddBytes(v.data(), v.size() * sizeof(float));
  }
  void AddInt(int64_t v) { AddBytes(&v, sizeof(v)); }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// Process resource usage (getrusage) and peak resident set.
struct Usage {
  int64_t minflt = 0;
  double utime_s = 0.0;
  double stime_s = 0.0;
};
Usage ReadUsage();
double PeakRssMb();

// CPU time the hypervisor took from this VM, in ticks, and all CPU time
// (/proc/stat). The share of the first in the second over an interval tells
// a noisy host from a slow program.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
  static CpuTicks Now();
  // Percent of CPU time stolen since `earlier`.
  double StealPctSince(const CpuTicks& earlier) const;
};

// Library counters at one instant; Delta() gives what happened between two.
struct Counters {
  elda::mem::PoolStats pool;
  elda::par::ParStats par;
  Usage usage;

  static Counters Now();
  Counters Delta(const Counters& earlier) const;
  // Adds the pool and rusage fields of a Delta() (what the mem.* metrics
  // read) into this running total.
  void Accumulate(const Counters& delta);
};

// The workloads. Each fills `report` and returns normally; a failed check
// is recorded in the report, not thrown.
void RunEldaCohort(const Args& args, Report* report);
void RunWardStream(const Args& args, Report* report);
void RunRaggedShards(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
