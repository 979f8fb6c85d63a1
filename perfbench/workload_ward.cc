// ward_stream: live per-patient scoring through serve::InferenceService,
// open loop.
//
// Why: bedside monitoring scores each new hourly observation as it arrives
// (cf. RETAIN / RetainVis); the serve layer (admission, micro-batching,
// handoff) dominates at a low rate, and the model's StepForward (nn/core)
// at a high one. There is no backward pass, no optimizer and no shard
// here, so changes to those layers should leave this workload unchanged.
//
// One generator thread sends Poisson arrivals, timed from when each was
// due, to a ward of resident ELDA-Net sessions. Each bed streams a
// synthetic stay hour by hour through a StreamingImputer; when the stay's
// 48 hours are sent and scored, the patient is discharged and the next one
// admitted into the bed. Two scoring workers with one kernel thread each
// and one completion thread make four threads in total. The completion
// thread polls every outstanding future, so a request is timed when it
// resolves, not when an earlier one is harvested. The model is seeded and
// untrained: serving cost does not depend on the weights.
//
// Phases: a fixed low rate, a fixed high rate, a closed-loop saturation
// run, and a capacity search — the highest open-loop rate whose p99 meets
// kLimitMs with no failed request and no growing backlog.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "core/elda_net.h"
#include "serve/service.h"
#include "serve/streaming_imputer.h"
#include "synth/simulator.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

namespace data = elda::data;
namespace serve = elda::serve;
namespace train = elda::train;

constexpr int64_t kStays = 1024;
constexpr int64_t kSteps = 48;  // stay length == session window
constexpr int64_t kWorkers = 2;
constexpr int64_t kMicroBatch = 64;
constexpr int64_t kSetupReps = 5;
constexpr double kLowRate = 1000.0;   // obs/s: micro-batches of ~1
constexpr double kHighRate = 2500.0;  // obs/s: a quarter of capacity
constexpr int64_t kLowBeds = 32;
constexpr int64_t kBeds = 128;
constexpr double kLimitMs = 50.0;  // p99 limit defining capacity
constexpr int64_t kClosedLoopInflight = 256;
constexpr int kCapacityProbes = 5;
// Latency percentiles are taken per window of due times and reported as
// the median over windows (see README: host scheduling hiccups).
constexpr int kWindows = 6;
// A phase during which the hypervisor took more than kMaxStealPct of the
// CPU is run again with the same inputs, up to kMaxAttempts times; the
// attempt with the least steal is kept (see README: noisy host periods).
constexpr double kMaxStealPct = 2.0;
constexpr int kMaxAttempts = 3;

struct Ward {
  data::EmrDataset dataset;
  data::Standardizer standardizer;
  std::vector<data::PreparedSample> prepared;
  std::unique_ptr<elda::core::EldaNet> model;
};

std::unique_ptr<Ward> MakeWard(uint64_t seed) {
  auto w = std::make_unique<Ward>();
  elda::synth::CohortConfig config = elda::synth::SynthPhysioNet2012();
  config.num_admissions = kStays;
  config.num_steps = kSteps;
  config.seed = seed;
  w->dataset = elda::synth::GenerateCohort(config);
  std::vector<int64_t> all(kStays);
  for (int64_t i = 0; i < kStays; ++i) all[static_cast<size_t>(i)] = i;
  w->standardizer.Fit(w->dataset, all);
  w->prepared = data::PrepareDataset(w->dataset, w->standardizer);
  elda::core::EldaNetConfig mc = elda::core::EldaNetConfig::Full();
  mc.seed = seed;
  w->model = std::make_unique<elda::core::EldaNet>(mc);
  return w;
}

// The first `hours` hours of a stay, as a stay of that length: what a
// session has absorbed after `hours` observations.
data::EmrSample FirstHours(const data::EmrSample& stay, int64_t hours) {
  data::EmrSample out(hours, stay.num_features);
  const size_t cells = static_cast<size_t>(hours * stay.num_features);
  std::copy_n(stay.values.begin(), cells, out.values.begin());
  std::copy_n(stay.observed.begin(), cells, out.observed.begin());
  out.mortality_label = stay.mortality_label;
  return out;
}

// Poisson arrival offsets (seconds) over [0, duration).
std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed) {
  elda::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

struct PhaseResult {
  std::vector<double> latency_ms;  // in due order
  std::vector<double> due_s;       // due offset of each latency sample
  std::vector<double> late_ms;     // generator lateness per arrival
  std::vector<double> imputer_us;
  std::vector<double> admit_us;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double mean_batch = 0.0;
  int64_t queue_depth_max = 0;
  int64_t rejected = 0;
  int64_t expired = 0;
  // patient -> (hours streamed, risk after the last of them)
  std::map<int64_t, std::pair<int64_t, float>> last_risk;
  double snapshot_save_ms = 0.0;
  double snapshot_restore_ms = 0.0;
  double snapshot_bytes = 0.0;

  double steal_pct = 0.0;  // CPU share the hypervisor took meanwhile
  // Over every attempt of the phase, kept or not (see RunSteadyPhase).
  int64_t attempted = 0;
  int64_t attempts_failed = 0;
  bool all_resolved = true;

  double completed_per_s() const { return ok / wall_s; }
};

struct Pending {
  std::future<serve::StepResult> result;
  Clock::time_point due;
  int64_t index = 0;  // arrival number
  int64_t patient = 0;
  serve::SessionId session = serve::kInvalidSession;
  bool last = false;  // the last hour of the patient's stay
  int64_t span = -1;
};

struct PhaseSpec {
  std::vector<double> schedule;  // open loop: due offsets; empty: closed
  double closed_seconds = 0.0;
  int64_t beds = kBeds;
  std::string snapshot_path;  // non-empty: snapshot after the stream
};

PhaseResult RunPhase(const Ward& w, const PhaseSpec& spec) {
  serve::ServeConfig config;
  config.infer.batch_size = kMicroBatch;
  config.infer.num_threads = 1;
  config.window_capacity = kSteps;
  // A finished stay's session is discharged once its last hour resolves,
  // while its bed already streams the next patient.
  config.max_sessions = 2 * spec.beds + 1;
  config.async = true;
  config.num_workers = kWorkers;
  serve::InferenceService service(w.model.get(), config);

  const int64_t num_features = w.dataset.num_features();
  struct Bed {
    serve::SessionId id = serve::kInvalidSession;
    int64_t patient = 0;
    int64_t pos = 0;
    int64_t length = kSteps;  // hours this patient stays
    std::unique_ptr<serve::StreamingImputer> imputer;
  };
  std::vector<Bed> beds(static_cast<size_t>(spec.beds));
  int64_t next_patient = 0;
  PhaseResult r;
  auto admit = [&](Bed* bed, int64_t length) {
    const Clock::time_point t0 = Clock::now();
    bed->id = service.Admit();
    r.admit_us.push_back(SecondsSince(t0) * 1e6);
    bed->patient = next_patient++;
    bed->pos = 0;
    bed->length = length;
    bed->imputer->Reset();
  };
  // A ward's patients are at different hours of their stays: the first
  // patient in bed b leaves after 1 + b * 48 / beds hours, so admissions,
  // discharges and first observations of a feature (which make ELDA-Net
  // replay its window) are spread out rather than in lockstep.
  for (int64_t b = 0; b < spec.beds; ++b) {
    Bed& bed = beds[static_cast<size_t>(b)];
    bed.imputer = std::make_unique<serve::StreamingImputer>(&w.standardizer,
                                                            num_features);
    admit(&bed, 1 + b * kSteps / spec.beds);
  }
  r.admit_us.clear();  // initial admissions are set-up, not stream

  std::mutex mu;
  std::vector<Pending> incoming;
  // Set before generator_done; requests still unresolved this long after
  // the last send are left out, and the resolved-count check fails.
  Clock::time_point drain_deadline = Clock::time_point::max();
  std::atomic<bool> generator_done{false};
  std::atomic<int64_t> inflight{0};
  std::vector<std::pair<int64_t, double>> latencies;  // (index, ms)

  std::thread completion([&] {
    std::vector<Pending> outstanding;
    Clock::time_point next_sample = Clock::now();
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Pending& p : incoming) outstanding.push_back(std::move(p));
        incoming.clear();
      }
      if (generator_done.load()) {
        std::lock_guard<std::mutex> lock(mu);
        if (incoming.empty() &&
            (outstanding.empty() || Clock::now() > drain_deadline)) {
          break;
        }
      }
      bool any = false;
      for (size_t i = 0; i < outstanding.size();) {
        Pending& p = outstanding[i];
        if (p.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        const Clock::time_point now = Clock::now();
        const serve::StepResult res = p.result.get();
        latencies.emplace_back(
            p.index,
            std::chrono::duration<double, std::milli>(now - p.due).count());
        Tracer::Get().Close(p.span, now);
        if (res.ok) {
          ++r.ok;
          // One session's requests resolve in order, so the last one seen
          // is the latest hour.
          r.last_risk[p.patient] = {res.step, res.risk};
        } else {
          ++r.failed;
        }
        if (p.last) service.Discharge(p.session);
        inflight.fetch_sub(1);
        any = true;
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      const Clock::time_point now = Clock::now();
      if (now >= next_sample) {
        r.queue_depth_max =
            std::max(r.queue_depth_max, service.batcher_stats().queue_depth);
        next_sample = now + std::chrono::milliseconds(1);
      }
      // Nothing resolved in this pass: block briefly on one outstanding
      // request rather than spin, so scoring workers keep their cores.
      if (!any && !outstanding.empty()) {
        outstanding.front().result.wait_for(std::chrono::microseconds(50));
      }
    }
  });

  // Sends the next hour of `bed`'s stay, due at `due`.
  auto send = [&](int64_t index, int64_t bed_index, Clock::time_point due) {
    Bed& bed = beds[static_cast<size_t>(bed_index)];
    if (bed.pos == bed.length) admit(&bed, kSteps);
    const int64_t request_span =
        Tracer::Get().Open("serve.request", due, -1, index);
    const data::EmrSample& stay =
        w.dataset.sample(bed.patient % kStays);
    const size_t off = static_cast<size_t>(bed.pos * num_features);
    const Clock::time_point t0 = Clock::now();
    serve::Observation obs =
        bed.imputer->Next(stay.values.data() + off, stay.observed.data() + off);
    const Clock::time_point t1 = Clock::now();
    r.imputer_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    Tracer::Get().Add("serve.impute", t0, t1, request_span, index);
    Pending p;
    p.result = service.ObserveAsync(bed.id, std::move(obs));
    Tracer::Get().Add("serve.submit", t1, Clock::now(), request_span, index);
    p.due = due;
    p.index = index;
    p.patient = bed.patient;
    p.session = bed.id;
    p.last = bed.pos == bed.length - 1;
    p.span = request_span;
    ++bed.pos;
    ++r.sent;
    inflight.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    incoming.push_back(std::move(p));
  };

  const Clock::time_point start = Clock::now();
  if (!spec.schedule.empty()) {
    for (size_t k = 0; k < spec.schedule.size(); ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(spec.schedule[k]));
      // Sleep until shortly before the arrival is due, then spin: a sleeping
      // thread wakes ~0.1 ms late, which would bias every latency.
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      while (Clock::now() < due) {
      }
      r.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
      send(static_cast<int64_t>(k), static_cast<int64_t>(k) % spec.beds, due);
    }
  } else {
    int64_t k = 0;
    while (SecondsSince(start) < spec.closed_seconds) {
      if (inflight.load() >= kClosedLoopInflight) {
        std::this_thread::yield();
        continue;
      }
      send(k, k % spec.beds, Clock::now());
      ++k;
    }
  }
  drain_deadline = Clock::now() + std::chrono::seconds(30);
  generator_done.store(true);
  completion.join();
  r.wall_s = SecondsSince(start);

  std::sort(latencies.begin(), latencies.end());
  for (const auto& [index, ms] : latencies) {
    r.latency_ms.push_back(ms);
    r.due_s.push_back(spec.schedule.empty()
                          ? 0.0
                          : spec.schedule[static_cast<size_t>(index)]);
  }
  const serve::MicroBatcher::Stats stats = service.batcher_stats();
  r.mean_batch = stats.mean_batch_size;
  r.rejected = stats.rejected;
  r.expired = stats.expired;

  if (!spec.snapshot_path.empty()) {
    Clock::time_point t0 = Clock::now();
    const bool saved = service.SaveSnapshotTo(spec.snapshot_path);
    r.snapshot_save_ms = SecondsSince(t0) * 1e3;
    struct stat st;
    if (saved && stat(spec.snapshot_path.c_str(), &st) == 0) {
      r.snapshot_bytes = static_cast<double>(st.st_size);
    }
    serve::InferenceService restored(w.model.get(), config);
    t0 = Clock::now();
    if (saved && restored.RestoreSnapshot(spec.snapshot_path)) {
      r.snapshot_restore_ms = SecondsSince(t0) * 1e3;
    }
    std::remove(spec.snapshot_path.c_str());
  }
  return r;
}

// RunPhase, repeated while the host was busy (see kMaxStealPct) and
// `retry_until` has not passed.
// Requests of a discarded attempt still count as attempted, and their
// failures as failures.
PhaseResult RunSteadyPhase(const Ward& w, const PhaseSpec& spec,
                           Clock::time_point retry_until) {
  PhaseResult best;
  int64_t attempted = 0, failed = 0;
  bool all_resolved = true;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    const CpuTicks t0 = CpuTicks::Now();
    PhaseResult r = RunPhase(w, spec);
    r.steal_pct = CpuTicks::Now().StealPctSince(t0);
    attempted += r.sent;
    failed += r.failed;
    all_resolved = all_resolved && r.ok + r.failed == r.sent;
    if (attempt > 1) {
      std::cerr << "perfbench: ward_stream phase repeated, host steal "
                << r.steal_pct << "%\n";
    }
    if (attempt == 1 || r.steal_pct < best.steal_pct) best = std::move(r);
    if (best.steal_pct <= kMaxStealPct || Clock::now() > retry_until) break;
  }
  best.attempted = attempted;
  best.attempts_failed = failed;
  best.all_resolved = all_resolved;
  return best;
}

// The q-th percentile latency of each of kWindows equal windows of due
// time, and the median of those. A host scheduling hiccup of a few ms lands
// in one window and moves one window's tail, not the result.
double WindowedPercentile(const PhaseResult& r, double duration_s, double q) {
  std::vector<std::vector<double>> windows(kWindows);
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    const int w = std::min(
        kWindows - 1, static_cast<int>(r.due_s[i] / duration_s * kWindows));
    windows[static_cast<size_t>(w)].push_back(r.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, q));
  }
  return Median(per_window);
}

// An open-loop run passes when no request failed, its p99 meets the limit,
// and the backlog did not grow: the last quarter's p99 meets it too.
bool MeetsLimit(const PhaseResult& r, double* p99) {
  *p99 = Percentile(r.latency_ms, 99);
  if (r.failed > 0 || r.latency_ms.empty()) return false;
  const std::vector<double> tail(
      r.latency_ms.begin() + static_cast<long>(r.latency_ms.size() * 3 / 4),
      r.latency_ms.end());
  return *p99 <= kLimitMs && Percentile(tail, 99) <= kLimitMs;
}

// nn layer probe: StepForward per observation at micro-batch 1 and 64.
void ProbeStepForward(const Ward& w, Report* report) {
  const int64_t C = w.dataset.num_features();
  for (int64_t b : {int64_t{1}, int64_t{64}}) {
    std::vector<std::unique_ptr<elda::nn::StepState>> owned;
    std::vector<elda::nn::StepState*> states;
    for (int64_t i = 0; i < b; ++i) {
      owned.push_back(w.model->MakeStepState(kSteps));
      states.push_back(owned.back().get());
    }
    elda::ag::NoGradScope no_grad;
    elda::nn::ForwardContext ctx;
    std::vector<double> us;
    for (int64_t t = 0; t < kSteps; ++t) {
      train::StepBatch sb;
      sb.x = elda::Tensor::Empty({b, C});
      sb.mask = elda::Tensor::Empty({b, C});
      sb.delta = elda::Tensor::Empty({b, C});
      for (int64_t i = 0; i < b; ++i) {
        const data::PreparedSample& s = w.prepared[static_cast<size_t>(i)];
        std::memcpy(sb.x.data() + i * C, s.x.data() + t * C,
                    C * sizeof(float));
        std::memcpy(sb.mask.data() + i * C, s.mask.data() + t * C,
                    C * sizeof(float));
        std::memcpy(sb.delta.data() + i * C, s.delta.data() + t * C,
                    C * sizeof(float));
      }
      Span span(b == 1 ? "nn.step_forward.b1" : "nn.step_forward.b64");
      w.model->StepForward(sb, states, &ctx);
      us.push_back(span.Stop() * 1e3 / static_cast<double>(b));
    }
    report->Layer(b == 1 ? "nn.step_forward_us_per_obs_b1"
                         : "nn.step_forward_us_per_obs_b64",
                  Median(us), "us");
  }
}

}  // namespace

void RunWardStream(const Args& args, Report* report) {
  report->threads =
      "2 scoring workers x 1 kernel thread, 1 generator, 1 completion thread";
  elda::par::SetNumThreads(1);
  std::vector<double> setup_s;
  std::unique_ptr<Ward> ward;
  std::vector<double> low_schedule, high_schedule;
  const double low_s = args.seconds * 0.3;
  const double high_s = args.seconds * 0.25;
  for (int64_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    ward = MakeWard(args.seed);
    low_schedule = PoissonSchedule(kLowRate, low_s, args.seed * 2 + 1);
    high_schedule = PoissonSchedule(kHighRate, high_s, args.seed * 2 + 2);
    setup_s.push_back(SecondsSince(t0));
  }
  const Ward& w = *ward;
  {
    Digest d;
    for (const data::EmrSample& s : w.dataset.samples()) {
      d.AddBytes(s.values.data(), s.values.size() * sizeof(float));
      d.AddBytes(s.observed.data(), s.observed.size());
    }
    for (double t : low_schedule) d.AddBytes(&t, sizeof(t));
    for (double t : high_schedule) d.AddBytes(&t, sizeof(t));
    report->input_digest = d.Hex();
  }

  PhaseSpec low_spec;
  low_spec.schedule = low_schedule;
  low_spec.beds = kLowBeds;
  // Repeating phases may at most double the run's measured time.
  const Clock::time_point retry_until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const PhaseResult low = RunSteadyPhase(w, low_spec, retry_until);
  PhaseSpec high_spec;
  high_spec.schedule = high_schedule;
  if (args.trace) high_spec.snapshot_path = args.work_dir + "/ward.snapshot";
  const PhaseResult high = RunSteadyPhase(w, high_spec, retry_until);

  // Saturation: a closed loop with many requests in flight.
  const bool traced = Tracer::Get().enabled();
  Tracer::Get().Enable(false);
  PhaseSpec sat_spec;
  sat_spec.closed_seconds = args.seconds * 0.1;
  const PhaseResult sat = RunSteadyPhase(w, sat_spec, retry_until);
  const double saturation = sat.completed_per_s();

  // Capacity: bisection over rates as a fraction of saturation.
  double lo = 0.5, hi = 1.1, lo_p99 = 0.0, hi_p99 = 0.0;
  std::vector<PhaseResult> probes;
  for (int probe = 0; probe < kCapacityProbes; ++probe) {
    const double f = 0.5 * (lo + hi);
    PhaseSpec spec;
    spec.schedule = PoissonSchedule(f * saturation, args.seconds * 0.06,
                                    args.seed * 31 + probe);
    probes.push_back(RunSteadyPhase(w, spec, retry_until));
    double p99 = 0.0;
    if (MeetsLimit(probes.back(), &p99)) {
      lo = f;
      lo_p99 = p99;
    } else {
      hi = f;
      hi_p99 = p99;
    }
  }
  Tracer::Get().Enable(traced);
  // Interpolate inside the last bracket on the p99 limit.
  double capacity_f = lo;
  if (hi_p99 > lo_p99 && hi < 1.1) {
    capacity_f += (hi - lo) *
                  std::clamp((kLimitMs - lo_p99) / (hi_p99 - lo_p99), 0.0, 1.0);
  }
  const double capacity = capacity_f * saturation;

  // Correctness: every request resolved, none failed, and each patient's
  // latest streamed risk equals Trainer::Predict over the hours the session
  // absorbed, bitwise.
  std::vector<const PhaseResult*> phases = {&low, &high, &sat};
  for (const PhaseResult& p : probes) phases.push_back(&p);
  for (const PhaseResult* p : phases) {
    report->attempted += p->attempted;
    report->failed += p->attempts_failed;
    report->Check(p->all_resolved, "ward_stream: a request never resolved");
  }
  report->Check(report->failed == 0, "ward_stream: requests failed");
  Digest out;
  int64_t checked = 0;
  for (const PhaseResult* p : {&low, &high}) {
    std::vector<data::PreparedSample> prefixes;
    std::vector<float> streamed;
    for (const auto& [patient, step_risk] : p->last_risk) {
      const auto [hours, risk] = step_risk;
      if (hours < w.model->min_steps_to_score()) continue;
      prefixes.push_back(data::PrepareOne(
          FirstHours(w.dataset.sample(patient % kStays), hours),
          w.standardizer));
      streamed.push_back(risk);
      out.AddInt(hours);
    }
    std::vector<int64_t> all(prefixes.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
    train::InferenceOptions opts;
    opts.batch_size = 1;
    opts.num_threads = 1;
    const std::vector<float> batch =
        train::Trainer::Predict(w.model.get(), prefixes, all,
                                data::Task::kMortality, opts)
            .scores;
    report->Check(SameBits(batch, streamed),
                  "ward_stream: streamed risk differs from Trainer::Predict");
    out.AddFloats(streamed);
    checked += static_cast<int64_t>(streamed.size());
  }
  report->Check(checked > 0, "ward_stream: no patient was scored");
  report->output_digest = out.Hex();

  report->E2E("setup_s", Median(setup_s), "s");
  report->E2E("bulk_per_s", saturation, "1/s");
  report->E2E("score_per_s", capacity, "1/s");
  report->E2E("p50_ms_low", WindowedPercentile(low, low_s, 50), "ms");
  report->E2E("p90_ms_low", WindowedPercentile(low, low_s, 90), "ms");
  report->E2E("p50_ms_high", WindowedPercentile(high, high_s, 50), "ms");
  report->E2E("p90_ms_high", WindowedPercentile(high, high_s, 90), "ms");

  if (!args.trace) return;
  int64_t rejected = 0, expired = 0;
  for (const PhaseResult* p : phases) {
    rejected += p->rejected;
    expired += p->expired;
  }
  report->Layer("serve.mean_batch", high.mean_batch, "count");
  report->Layer("serve.queue_depth_max",
                static_cast<double>(high.queue_depth_max), "count");
  report->Layer("serve.generator_late_ms_p99", Percentile(high.late_ms, 99),
                "ms");
  report->Layer("serve.imputer_us", Median(high.imputer_us), "us");
  report->Layer("serve.admit_us", Median(high.admit_us), "us");
  report->Layer("serve.rejected", static_cast<double>(rejected), "count");
  report->Layer("serve.expired", static_cast<double>(expired), "count");
  report->Layer("serve.snapshot_save_ms", high.snapshot_save_ms, "ms");
  report->Layer("serve.snapshot_restore_ms", high.snapshot_restore_ms, "ms");
  report->Layer("serve.snapshot_bytes", high.snapshot_bytes, "B");
  report->Check(high.snapshot_bytes > 0, "ward_stream: snapshot failed");
  ProbeStepForward(w, report);
}

}  // namespace perfbench
