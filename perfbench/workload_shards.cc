// ragged_shards: out-of-core training and scoring of variable-length stays,
// closed loop.
//
// Why: real ICU stays run from hours to weeks and real cohorts do not fit
// in memory. This workload exercises the data layer (CRC-framed shards,
// the length-bucketed prefetching ShardedLoader) and ragged recurrence
// with a GRU, and runs no core (ELDA-Net) code, so it is the workload on
// which an ELDA-specific change should show no effect. Set-up writes the
// cohort (6 h to 30 d stays) to shards. One cycle trains a freshly seeded
// GRU for one epoch from the 60% train split through
// Trainer::TrainStreamed, then scores the 40% held-out split through
// Trainer::PredictSource. Per-patient latency is B = 1 Predict over the
// held-out stays decoded into memory.

#include <sys/stat.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common.h"
#include "data/shard_io.h"
#include "data/sharded_loader.h"
#include "probes.h"
#include "synth/simulator.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

namespace data = elda::data;
namespace train = elda::train;

constexpr int64_t kStays = 2048;
constexpr int64_t kStaysPerShard = 512;
constexpr int64_t kBatch = 64;
constexpr int64_t kBuckets = 4;
constexpr int64_t kThreads = 4;
constexpr int64_t kSetupReps = 3;
constexpr int64_t kChunkCalls = 250;  // per-patient calls per load, per cycle
constexpr int64_t kConcurrentCallers = 4;
constexpr int64_t kProbeSteps = 8;
constexpr int kScorePasses = 3;
constexpr int64_t kSplitMod = 10;
// 40% held out: scoring rates over fewer stays moved with the seed's mix of
// stay lengths.
const std::vector<int64_t> kTrainKeep = {0, 1, 2, 3, 4, 5};
const std::vector<int64_t> kHeldOutKeep = {6, 7, 8, 9};

struct Shards {
  std::vector<std::string> paths;
  data::Standardizer standardizer;
  std::vector<data::PreparedSample> held_out;  // decoded, for B = 1 calls
  std::vector<int64_t> held_out_index;         // global index per entry
  double write_s = 0.0;
};

bool HeldOut(int64_t global_index) {
  const int64_t r = global_index % kSplitMod;
  return std::find(kHeldOutKeep.begin(), kHeldOutKeep.end(), r) !=
         kHeldOutKeep.end();
}

std::unique_ptr<Shards> MakeShards(const std::string& dir, uint64_t seed) {
  auto s = std::make_unique<Shards>();
  elda::synth::CohortConfig config = elda::synth::SynthPhysioNet2012();
  config.num_admissions = kStays;
  config.variable_length = true;
  config.seed = seed;
  const Clock::time_point t0 = Clock::now();
  s->paths = elda::synth::GenerateCohortToShards(config, dir + "/cohort",
                                                 kStaysPerShard)
                 .paths;
  s->write_s = SecondsSince(t0);
  s->standardizer =
      data::FitStandardizerFromShards(s->paths, kSplitMod, kTrainKeep);
  int64_t global = 0;
  for (const std::string& path : s->paths) {
    data::ShardReader reader(path);
    for (int64_t i = 0; i < reader.size(); ++i, ++global) {
      if (!HeldOut(global)) continue;
      data::EmrSample sample;
      if (!reader.Read(i, &sample)) continue;  // counted as quarantined
      s->held_out.push_back(data::PrepareOne(sample, s->standardizer));
      s->held_out_index.push_back(global);
    }
  }
  return s;
}

data::ShardedLoaderOptions LoaderOptions(uint64_t seed, bool train_split,
                                         bool prefetch) {
  data::ShardedLoaderOptions o;
  o.batch_size = kBatch;
  o.num_buckets = kBuckets;
  o.prefetch = prefetch;
  o.seed = seed;
  o.split_mod = kSplitMod;
  o.split_keep = train_split ? kTrainKeep : kHeldOutKeep;
  return o;
}

// Times the consumer's wait in Next(): the part of the loader's work that
// prefetch did not hide.
class TimedSource : public data::BatchSource {
 public:
  explicit TimedSource(data::BatchSource* inner) : inner_(inner) {}
  void StartEpoch() override { inner_->StartEpoch(); }
  bool Next(data::Batch* batch) override {
    Span span("data.next");
    const bool more = inner_->Next(batch);
    wait_ms_.push_back(span.Stop());
    return more;
  }
  int64_t NumBatchesPerEpoch() const override {
    return inner_->NumBatchesPerEpoch();
  }
  std::string ExportState() const override { return inner_->ExportState(); }
  bool RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }
  const std::vector<double>& wait_ms() const { return wait_ms_; }

 private:
  data::BatchSource* inner_;
  std::vector<double> wait_ms_;
};

struct CycleResult {
  double train_s = 0.0;
  double score_s = 0.0;
  double trained = 0.0;
  double eval_s = 0.0;
  std::vector<float> scores;
  std::vector<double> next_wait_ms;
  std::unique_ptr<elda::train::SequenceModel> model;  // as trained
};

CycleResult RunCycle(const Shards& s, uint64_t seed, bool timed_source,
                     Report* report) {
  CycleResult r;
  Span cycle_span("ragged_shards.cycle");
  auto model = elda::baselines::MakeModel("GRU", 37, seed);
  data::ShardedLoader train_loader(s.paths, &s.standardizer,
                                   LoaderOptions(seed, true, true));
  TimedSource timed(&train_loader);
  train::TrainerConfig tc;
  tc.max_epochs = 1;
  tc.patience = 1;
  tc.num_threads = kThreads;
  tc.seed = seed;
  {
    Span span("train.TrainStreamed");
    const Clock::time_point t0 = Clock::now();
    const train::TrainResult tr = train::Trainer(tc).TrainStreamed(
        model.get(),
        timed_source ? static_cast<data::BatchSource*>(&timed)
                     : &train_loader,
        nullptr, nullptr);
    r.train_s = SecondsSince(t0);
    r.trained = static_cast<double>(train_loader.num_records());
    const int64_t batches = train_loader.NumBatchesPerEpoch();
    r.eval_s = r.train_s - tr.train_seconds_per_batch * batches;
    report->attempted += batches;
    report->failed += tr.skipped_batches + tr.recoveries;
    report->Check(tr.status == elda::health::TrainStatus::kOk,
                  "ragged_shards: training needed health skips or recoveries");
  }
  r.next_wait_ms = timed.wait_ms();
  // One scoring pass takes ~0.1 s, so the cycle times several, each from a
  // fresh loader (same plan, same bits), and keeps the median.
  std::vector<double> pass_s;
  for (int pass = 0; pass < kScorePasses; ++pass) {
    data::ShardedLoader held_loader(s.paths, &s.standardizer,
                                    LoaderOptions(seed, false, true));
    Span span("train.PredictSource");
    train::InferenceOptions opts;
    opts.num_threads = kThreads;
    const Clock::time_point t0 = Clock::now();
    std::vector<float> scores =
        train::Trainer::PredictSource(model.get(), &held_loader, opts).scores;
    pass_s.push_back(SecondsSince(t0));
    report->attempted += static_cast<int64_t>(scores.size());
    report->Check(held_loader.num_quarantined() == 0,
                  "ragged_shards: records quarantined");
    if (pass == 0) {
      r.scores = std::move(scores);
    } else {
      report->Check(SameBits(scores, r.scores),
                    "ragged_shards: a repeated pass scored different bits");
    }
  }
  r.score_s = Median(pass_s);
  report->Check(train_loader.num_quarantined() == 0,
                "ragged_shards: records quarantined");
  r.model = std::move(model);
  return r;
}

}  // namespace

void RunRaggedShards(const Args& args, Report* report) {
  report->threads = "train+score kernel threads " + std::to_string(kThreads) +
                    ", loader prefetch on";
  const std::string dir = args.work_dir + "/shards";
  mkdir(dir.c_str(), 0755);
  std::vector<double> setup_s, write_s;
  std::unique_ptr<Shards> shards;
  for (int64_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    shards = MakeShards(dir, args.seed);
    setup_s.push_back(SecondsSince(t0));
    write_s.push_back(shards->write_s);
  }
  const Shards& s = *shards;
  {
    Digest d;
    for (const data::PreparedSample& p : s.held_out) {
      d.AddBytes(p.x.data(), p.x.size() * sizeof(float));
      d.AddInt(p.length);
    }
    for (const std::string& path : s.paths) {
      data::ShardReader reader(path);
      for (int64_t i = 0; i < reader.size(); ++i) {
        d.AddInt(reader.PeekLength(i));
      }
    }
    report->input_digest = d.Hex();
  }
  elda::par::SetNumThreads(kThreads);

  Counters cyc;  // summed over the cycles' train and score phases
  const Clock::time_point start = Clock::now();
  const double budget = args.seconds * 0.85;
  std::vector<CycleStats> stats;
  std::vector<double> next_wait;
  std::vector<float> first_scores;
  std::unique_ptr<train::SequenceModel> model;
  double items = 0.0;
  while (NeedMoreCycles(stats, SecondsSince(start), budget)) {
    const int64_t cycle = static_cast<int64_t>(stats.size());
    CycleStats st;
    st.traced = args.trace && cycle % 2 == 1;
    Tracer::Get().Enable(st.traced);
    const CpuTicks ticks = CpuTicks::Now();
    const Counters c0 = Counters::Now();
    CycleResult r = RunCycle(s, args.seed, st.traced, report);
    cyc.Accumulate(Counters::Now().Delta(c0));
    Tracer::Get().Enable(args.trace);
    st.bulk_per_s = r.trained / r.train_s;
    st.score_per_s = r.scores.size() / r.score_s;
    st.eval_s = r.eval_s;
    st.seconds = r.train_s + r.score_s;
    next_wait.insert(next_wait.end(), r.next_wait_ms.begin(),
                     r.next_wait_ms.end());
    items += r.trained + static_cast<double>(r.scores.size());
    if (cycle == 0) {
      first_scores = r.scores;
    } else {
      report->Check(SameBits(r.scores, first_scores),
                    "ragged_shards: a repeated cycle scored different bits");
    }
    elda::par::SetNumThreads(kThreads);
    const int64_t first = cycle * kChunkCalls;
    const std::vector<double> low =
        PerPatientLatencies(r.model.get(), s.held_out, first, kChunkCalls, 1,
                            nullptr, "ragged_shards", report);
    const std::vector<double> high = PerPatientLatencies(
        r.model.get(), s.held_out, first, kChunkCalls, kConcurrentCallers,
        nullptr, "ragged_shards", report);
    st.low_p50 = Percentile(low, 50);
    st.low_p90 = Percentile(low, 90);
    st.high_p50 = Percentile(high, 50);
    st.high_p90 = Percentile(high, 90);
    st.steal_pct = CpuTicks::Now().StealPctSince(ticks);
    stats.push_back(st);
    model = std::move(r.model);
  }

  // Correctness: every held-out stay scored exactly once, and prefetch off
  // scores the same bits as prefetch on (on the last cycle's model).
  {
    data::ShardedLoader on(s.paths, &s.standardizer,
                           LoaderOptions(args.seed, false, true));
    data::ShardedLoader off(s.paths, &s.standardizer,
                            LoaderOptions(args.seed, false, false));
    train::InferenceOptions opts;
    opts.num_threads = kThreads;
    const std::vector<float> a =
        train::Trainer::PredictSource(model.get(), &on, opts).scores;
    const std::vector<float> b =
        train::Trainer::PredictSource(model.get(), &off, opts).scores;
    report->Check(SameBits(a, first_scores),
                  "ragged_shards: rescoring differs from the cycle's scores");
    report->Check(SameBits(a, b),
                  "ragged_shards: prefetch on and off score different bits");

    data::ShardedLoader drain(s.paths, &s.standardizer,
                              LoaderOptions(args.seed, false, true));
    std::multiset<int64_t> seen;
    drain.StartEpoch();
    data::Batch batch;
    while (drain.Next(&batch)) {
      seen.insert(batch.sample_indices.begin(), batch.sample_indices.end());
    }
    const std::set<int64_t> expected(s.held_out_index.begin(),
                                     s.held_out_index.end());
    int64_t expected_count = 0;
    for (int64_t i = 0; i < kStays; ++i) expected_count += HeldOut(i);
    report->Check(static_cast<int64_t>(seen.size()) == expected_count &&
                      std::set<int64_t>(seen.begin(), seen.end()) == expected &&
                      static_cast<int64_t>(a.size()) == expected_count,
                  "ragged_shards: held-out stays not scored exactly once");
    report->Check(on.num_quarantined() == 0 && drain.num_quarantined() == 0,
                  "ragged_shards: records quarantined");
  }
  Digest out;
  out.AddFloats(first_scores);
  report->output_digest = out.Hex();

  report->E2E("setup_s", Median(setup_s), "s");
  ReportCycles(stats, args.trace, report);

  if (!args.trace) return;
  ReportMemory(cyc, items, report);
  report->Layer("data.next_wait_ms", Median(next_wait), "ms");
  report->Layer("data.shard_write_s", Median(write_s), "s");
  {
    data::ShardedLoader loader(s.paths, &s.standardizer,
                               LoaderOptions(args.seed, true, true));
    report->Layer("data.padding_waste", loader.PaddingWaste(), "ratio");
    Span span("data.drain");
    loader.StartEpoch();
    data::Batch batch;
    int64_t stays = 0;
    while (loader.Next(&batch)) {
      stays += static_cast<int64_t>(batch.lengths.size());
    }
    report->Layer("data.drain_stays_per_s", stays / (span.Stop() * 1e-3),
                  "1/s");
    report->Layer("data.quarantined",
                  static_cast<double>(loader.num_quarantined()), "count");
  }
  {
    data::ShardedLoader loader(s.paths, &s.standardizer,
                               LoaderOptions(args.seed, true, true));
    auto probe_model = elda::baselines::MakeModel("GRU", 37, args.seed);
    ProbeTrainSteps(probe_model.get(), &loader, kProbeSteps, args.seed,
                    report);
  }
}

}  // namespace perfbench
