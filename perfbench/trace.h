// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer's public function, recorded by the
// benchmark around that call: name, start, end, the span that caused it
// (its parent) and the request it belongs to. Spans stay in memory and are
// written out once the run ends. A span's self time is its duration minus
// the part of it that its child spans cover.
//
// The recorder is off unless the run is traced; a disabled Span costs one
// branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;   // -1: a root span
  int64_t request = -1;  // spans of one request share this id; -1: none
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

// Per-name totals over all spans of that name.
struct SpanTotals {
  int64_t count = 0;
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Records a finished interval; returns its id (-1 when disabled).
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent = -1,
              int64_t request = -1);
  // Reserves an id for a span whose end is not known yet (children may
  // name it as their parent before it is closed with Close).
  int64_t Open(const std::string& name, Clock::time_point start,
               int64_t parent = -1, int64_t request = -1);
  void Close(int64_t id, Clock::time_point end);

  std::vector<SpanRecord> Records() const;

  // Self time of every span (same order as Records()).
  static std::vector<double> SelfMs(const std::vector<SpanRecord>& spans);
  static std::map<std::string, SpanTotals> Summarize(
      const std::vector<SpanRecord>& spans);

  // Writes every span plus the per-name summary as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index == id
};

// RAII span on the current thread. Nested Spans on one thread take the
// enclosing one as parent; a request id is inherited the same way.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early (idempotent); returns its duration in ms.
  double Stop();
  int64_t id() const { return id_; }

 private:
  int64_t id_ = -1;
  int64_t prev_current_ = -1;
  int64_t prev_request_ = -1;
  Clock::time_point start_;
  double ms_ = 0.0;
  bool stopped_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
