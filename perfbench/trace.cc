#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

thread_local int64_t t_current_span = -1;
thread_local int64_t t_current_request = -1;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int64_t Tracer::Open(const std::string& name, Clock::time_point start,
                     int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.id = static_cast<int64_t>(spans_.size());
  r.parent = parent;
  r.request = request;
  r.name = name;
  r.start = start;
  r.end = start;
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void Tracer::Close(int64_t id, Clock::time_point end) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

int64_t Tracer::Add(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, int64_t request) {
  const int64_t id = Open(name, start, parent, request);
  Close(id, end);
  return id;
}

std::vector<SpanRecord> Tracer::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfMs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<int64_t>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back(s.id);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    // Union of the child intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (int64_t c : children[static_cast<size_t>(s.id)]) {
      const SpanRecord& k = spans[static_cast<size_t>(c)];
      const Clock::time_point a = std::max(k.start, s.start);
      const Clock::time_point b = std::min(k.end, s.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const Clock::time_point from = std::max(a, reach);
      if (b > from) {
        covered += Ms(from, b);
        reach = b;
      }
    }
    self[static_cast<size_t>(s.id)] = Ms(s.start, s.end) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> Tracer::Summarize(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfMs(spans);
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = totals[s.name];
    ++t.count;
    t.inclusive_ms += Ms(s.start, s.end);
    t.self_ms += self[static_cast<size_t>(s.id)];
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Records();
  const std::vector<double> self = SelfMs(spans);
  const Clock::time_point origin =
      spans.empty() ? Clock::now() : spans.front().start;
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"name\": \"" << JsonEscape(s.name) << "\", \"start_ms\": "
        << Ms(origin, s.start) << ", \"end_ms\": " << Ms(origin, s.end)
        << ", \"self_ms\": " << self[i] << "}";
  }
  out << "\n], \"summary\": {";
  bool first = true;
  for (const auto& [name, t] : Summarize(spans)) {
    out << (first ? "\n" : ",\n") << "\"" << JsonEscape(name)
        << "\": {\"count\": " << t.count
        << ", \"inclusive_ms\": " << t.inclusive_ms
        << ", \"self_ms\": " << t.self_ms << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, int64_t request) : start_(Clock::now()) {
  prev_current_ = t_current_span;
  prev_request_ = t_current_request;
  if (request < 0) request = t_current_request;
  id_ = Tracer::Get().Open(name, start_, t_current_span, request);
  if (id_ >= 0) {
    t_current_span = id_;
    t_current_request = request;
  }
}

double Span::Stop() {
  if (!stopped_) {
    stopped_ = true;
    const Clock::time_point end = Clock::now();
    ms_ = Ms(start_, end);
    Tracer::Get().Close(id_, end);
    if (id_ >= 0) {
      t_current_span = prev_current_;
      t_current_request = prev_request_;
    }
  }
  return ms_;
}

Span::~Span() { Stop(); }

}  // namespace perfbench
