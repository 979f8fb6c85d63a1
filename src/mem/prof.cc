#include "mem/prof.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "mem/pool.h"
#include "par/par.h"

namespace elda {
namespace prof {
namespace {

struct OpStats {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
  int64_t pool_allocs = 0;  // pool-eligible allocations (hit or miss)
  int64_t pool_hits = 0;
  int64_t tape_nodes = 0;   // autograd nodes recorded under this op
  int64_t fused_calls = 0;           // fused-kernel invocations
  int64_t fused_kernels_avoided = 0; // composed kernel passes not run
  int64_t fused_bytes_avoided = 0;   // temporary bytes not allocated
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_reported{false};
std::once_flag g_init_once;
std::once_flag g_atexit_once;

std::mutex g_mu;
std::map<std::string, OpStats>& Table() {
  static std::map<std::string, OpStats>* table =
      new std::map<std::string, OpStats>();
  return *table;
}

thread_local const char* tls_current_op = nullptr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AtExitDump() {
  if (!g_reported.load(std::memory_order_relaxed) && Enabled()) {
    Report(std::cerr);
  }
}

void ArmAtExit() {
  std::call_once(g_atexit_once, [] { std::atexit(AtExitDump); });
}

std::string HumanBytes(int64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 3) {
    v /= 1024.0;
    ++u;
  }
  std::ostringstream out;
  out << std::fixed << std::setprecision(u == 0 ? 0 : 1) << v << " "
      << units[u];
  return out.str();
}

}  // namespace

bool Enabled() {
  std::call_once(g_init_once, [] {
    const char* env = std::getenv("ELDA_PROF");
    const bool on = env != nullptr && !(env[0] == '0' && env[1] == '\0');
    if (on) {
      g_enabled.store(true, std::memory_order_relaxed);
      ArmAtExit();
    }
  });
  return g_enabled.load(std::memory_order_relaxed);
}

void SetEnabled(bool enabled) {
  Enabled();  // resolve the env once so the flag is not overwritten later
  g_enabled.store(enabled, std::memory_order_relaxed);
  if (enabled) ArmAtExit();
}

void RecordAlloc(int64_t bytes, AllocKind kind) {
  if (!Enabled()) return;
  const char* op = tls_current_op ? tls_current_op : "(outside op)";
  std::lock_guard<std::mutex> lock(g_mu);
  OpStats& s = Table()[op];
  ++s.allocs;
  s.alloc_bytes += bytes;
  if (kind != AllocKind::kSmall) ++s.pool_allocs;
  if (kind == AllocKind::kPoolHit) ++s.pool_hits;
}

void RecordTapeNode() {
  if (!Enabled()) return;
  const char* op = tls_current_op ? tls_current_op : "(outside op)";
  std::lock_guard<std::mutex> lock(g_mu);
  ++Table()[op].tape_nodes;
}

void RecordFusion(int64_t kernels_avoided, int64_t bytes_avoided) {
  if (!Enabled()) return;
  const char* op = tls_current_op ? tls_current_op : "(outside op)";
  std::lock_guard<std::mutex> lock(g_mu);
  OpStats& s = Table()[op];
  ++s.fused_calls;
  s.fused_kernels_avoided += kernels_avoided;
  s.fused_bytes_avoided += bytes_avoided;
}

ScopedOp::ScopedOp(const char* name) {
  if (!Enabled()) return;
  name_ = name;
  prev_ = tls_current_op;
  tls_current_op = name;
  start_ns_ = NowNs();
}

ScopedOp::~ScopedOp() {
  if (name_ == nullptr) return;
  const int64_t elapsed = NowNs() - start_ns_;
  tls_current_op = prev_;
  std::lock_guard<std::mutex> lock(g_mu);
  OpStats& s = Table()[name_];
  ++s.calls;
  s.total_ns += elapsed;
}

void Report(std::ostream& os) {
  g_reported.store(true, std::memory_order_relaxed);
  std::vector<std::pair<std::string, OpStats>> rows;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    rows.assign(Table().begin(), Table().end());
  }
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  os << "\n=== ELDA_PROF op report ===\n";
  os << std::left << std::setw(18) << "op" << std::right << std::setw(12)
     << "calls" << std::setw(12) << "total ms" << std::setw(12) << "ns/call"
     << std::setw(12) << "alloc" << std::setw(10) << "hit%" << std::setw(10)
     << "tape" << std::setw(10) << "fused" << std::setw(12) << "saved"
     << "\n";
  int64_t total_fused_calls = 0;
  int64_t total_kernels_avoided = 0;
  int64_t total_bytes_avoided = 0;
  for (const auto& [name, s] : rows) {
    os << std::left << std::setw(18) << name << std::right << std::setw(12)
       << s.calls << std::setw(12) << std::fixed << std::setprecision(2)
       << s.total_ns / 1e6 << std::setw(12)
       << (s.calls > 0 ? s.total_ns / s.calls : 0) << std::setw(12)
       << HumanBytes(s.alloc_bytes);
    // hit% is over pool-eligible allocations only; ops that allocate
    // nothing but small (malloc-tier) buffers have no pool hit rate.
    if (s.pool_allocs > 0) {
      os << std::setw(9) << std::setprecision(1)
         << 100.0 * s.pool_hits / s.pool_allocs << "%";
    } else {
      os << std::setw(10) << "-";
    }
    os << std::setw(10) << s.tape_nodes;
    // Fusion accounting: invocation count and temporary bytes the composed
    // graph would have allocated but the fused kernel did not.
    if (s.fused_calls > 0) {
      os << std::setw(10) << s.fused_calls << std::setw(12)
         << HumanBytes(s.fused_bytes_avoided);
      total_fused_calls += s.fused_calls;
      total_kernels_avoided += s.fused_kernels_avoided;
      total_bytes_avoided += s.fused_bytes_avoided;
    } else {
      os << std::setw(10) << "-" << std::setw(12) << "-";
    }
    os << "\n";
  }
  os << "fusion: " << total_fused_calls << " fused calls, "
     << total_kernels_avoided << " kernel passes avoided, "
     << HumanBytes(total_bytes_avoided) << " of temporaries not allocated\n";
  const mem::PoolStats pool = mem::Pool::Global().Stats();
  os << "pool: " << pool.acquires << " acquires, " << pool.hits << " hits ("
     << std::fixed << std::setprecision(1) << 100.0 * pool.hit_rate()
     << "% hit rate), " << HumanBytes(pool.bytes_allocated)
     << " allocated from system, " << HumanBytes(pool.bytes_cached)
     << " cached, " << pool.huge_acquires << " huge, "
     << pool.small_acquires << " small (malloc tier)\n";
  const par::ParStats dispatch = par::Stats();
  os << "par: " << dispatch.parallel_dispatches << " parallel dispatches ("
     << dispatch.chunks << " chunks), " << dispatch.inline_runs
     << " inline runs, " << dispatch.overlapped_dispatches
     << " overlapped with another caller's job\n";
  os.flush();
}

bool ReportIfEnabled(std::ostream& os) {
  if (!Enabled()) return false;
  Report(os);
  return true;
}

void Reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  Table().clear();
}

}  // namespace prof
}  // namespace elda
