// elda_cohort: the paper's model on a fixed-length cohort, closed loop.
//
// Why: ELDA-Net at the paper's shapes (T = 48 hourly steps, C = 37
// PhysioNet channels) is the model and the Table III efficiency columns
// this repository reproduces; the core, autograd and mem layers do most of
// the work here. One cycle trains a freshly seeded ELDA-Net through
// Trainer::Train for a fixed number of epochs (patience >= epochs, so a
// bit-level change cannot change the amount of work), scores the whole
// cohort through the batch-parallel Trainer::Predict, and then measures
// per-patient scoring latency (B = 1 Predict) with one caller and with four
// concurrent callers. Cycles repeat until the time budget is spent; the
// metrics are medians over cycles.

#include <algorithm>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "common.h"
#include "core/elda_net.h"
#include "probes.h"
#include "synth/simulator.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

namespace data = elda::data;
namespace train = elda::train;
namespace ag = elda::ag;

constexpr int64_t kAdmissions = 1024;
constexpr int64_t kSteps = 48;
constexpr int64_t kEpochs = 1;
constexpr int64_t kTrainBatch = 64;
constexpr int64_t kScoreBatch = 256;
constexpr int64_t kThreads = 4;
constexpr int64_t kSetupReps = 5;
constexpr int64_t kChunkCalls = 250;  // per-patient calls per load, per cycle
constexpr int64_t kConcurrentCallers = 4;
constexpr int64_t kProbeSteps = 8;

struct Cohort {
  data::EmrDataset dataset;
  data::SplitIndices split;
  data::Standardizer standardizer;
  std::vector<data::PreparedSample> prepared;
};

std::unique_ptr<Cohort> MakeCohort(uint64_t seed) {
  auto cohort = std::make_unique<Cohort>();
  elda::synth::CohortConfig config = elda::synth::SynthPhysioNet2012();
  config.num_admissions = kAdmissions;
  config.num_steps = kSteps;
  config.seed = seed;
  cohort->dataset = elda::synth::GenerateCohort(config);
  elda::Rng rng(seed ^ 0x5D17ULL);
  cohort->split = data::SplitDataset(kAdmissions, 0.5, 0.1, &rng);
  cohort->standardizer.Fit(cohort->dataset, cohort->split.train);
  cohort->prepared =
      data::PrepareDataset(cohort->dataset, cohort->standardizer);
  return cohort;
}

std::string InputDigest(const Cohort& c) {
  Digest d;
  for (const data::PreparedSample& s : c.prepared) {
    d.AddBytes(s.x.data(), s.x.size() * sizeof(float));
    d.AddBytes(s.mask.data(), s.mask.size() * sizeof(float));
    d.AddFloat(s.mortality_label);
  }
  for (int64_t i : c.split.train) d.AddInt(i);
  return d.Hex();
}

std::unique_ptr<elda::core::EldaNet> MakeModel(uint64_t seed) {
  elda::core::EldaNetConfig config = elda::core::EldaNetConfig::Full();
  config.seed = seed;
  return std::make_unique<elda::core::EldaNet>(config);
}

struct CycleResult {
  double train_s = 0.0;
  double score_s = 0.0;
  double train_items = 0.0;
  double eval_s = 0.0;  // Train wall time outside its optimizer steps
  std::vector<float> scores;
  std::unique_ptr<elda::core::EldaNet> model;  // as trained by the cycle
};

CycleResult RunCycle(const Cohort& c, uint64_t seed,
                     const std::vector<int64_t>& all, Report* report) {
  CycleResult r;
  Span cycle_span("elda_cohort.cycle");
  auto model = MakeModel(seed);
  train::TrainerConfig tc;
  tc.max_epochs = kEpochs;
  tc.patience = kEpochs;
  tc.batch_size = kTrainBatch;
  tc.num_threads = kThreads;
  tc.seed = seed;
  train::Trainer trainer(tc);
  {
    Span span("train.Train");
    const Clock::time_point t0 = Clock::now();
    const train::TrainResult tr =
        trainer.Train(model.get(), c.prepared, c.split, data::Task::kMortality);
    r.train_s = SecondsSince(t0);
    const int64_t batches_per_epoch =
        (static_cast<int64_t>(c.split.train.size()) + kTrainBatch - 1) /
        kTrainBatch;
    r.train_items = static_cast<double>(c.split.train.size() * tr.epochs_run);
    r.eval_s = r.train_s - tr.train_seconds_per_batch *
                               static_cast<double>(batches_per_epoch *
                                                   tr.epochs_run);
    report->attempted += batches_per_epoch * tr.epochs_run;
    report->failed += tr.skipped_batches + tr.recoveries;
    report->Check(tr.status == elda::health::TrainStatus::kOk &&
                      tr.skipped_batches == 0 && tr.recoveries == 0,
                  "elda_cohort: training needed health skips or recoveries");
    report->Check(tr.epochs_run == kEpochs,
                  "elda_cohort: training stopped before its epoch budget");
  }
  {
    Span span("train.Predict");
    train::InferenceOptions opts;
    opts.batch_size = kScoreBatch;
    opts.num_threads = kThreads;
    opts.parallel = true;
    const Clock::time_point t0 = Clock::now();
    r.scores = train::Trainer::Predict(model.get(), c.prepared, all,
                                       data::Task::kMortality, opts)
                   .scores;
    r.score_s = SecondsSince(t0);
    report->attempted += static_cast<int64_t>(all.size());
  }
  r.model = std::move(model);
  return r;
}

// Replica of ELDA-Net's module chain at the workload's shapes. Forward and
// backward are timed per module; each module's backward is isolated by
// feeding it a detached leaf and seeding it with the surrogate scalar
// Sum(out * g), g being the true upstream gradient, detached. The module
// times should add up to the whole model's (core.coverage ~ 1).
void ProbeCoreModules(const Cohort& c, uint64_t seed, Report* report) {
  using elda::core::EldaNetConfig;
  const EldaNetConfig cfg = EldaNetConfig::Full();
  elda::Rng rng(seed);
  elda::core::BiDirectionalEmbedding embedding(
      cfg.num_features, cfg.embed_dim, cfg.embedding, cfg.lower, cfg.upper,
      /*use_missing_embedding=*/true, &rng);
  elda::core::FeatureInteraction feature(cfg.num_features, cfg.embed_dim,
                                         cfg.compression, &rng);
  elda::core::TimeInteraction time(feature.output_dim(), cfg.hidden_dim,
                                   &rng);
  elda::nn::Linear prediction(time.output_dim(), 1, /*use_bias=*/true, &rng);
  auto whole = MakeModel(seed);

  std::vector<int64_t> rows(c.split.train.begin(),
                            c.split.train.begin() + kTrainBatch);
  const data::Batch batch =
      data::MakeBatch(c.prepared, rows, data::Task::kMortality);
  elda::nn::ForwardContext ctx;  // dropout-free chain: inference-mode ctx
  auto leaf = [](const ag::Variable& v) {
    return ag::Variable(v.value(), /*requires_grad=*/true);
  };
  // Backward of one stage, seeded with Sum(out * g) where g is the gradient
  // that reached the next stage's input leaf. The seed's own backward (the
  // Mul and SumAll adjoints) is timed on a leaf copy of `out` and
  // subtracted, so the result is the stage's backward alone.
  auto stage_backward = [](const ag::Variable& out, const ag::Variable& next,
                           const char* name) {
    const ag::Variable g = ag::Constant(next.grad());
    ag::Variable seed = ag::SumAll(ag::Mul(out, g));
    Span s(name);
    seed.Backward();
    const double total = s.Stop();
    ag::Variable out_leaf(out.value(), /*requires_grad=*/true);
    ag::Variable seed_only = ag::SumAll(ag::Mul(out_leaf, g));
    const Clock::time_point t0 = Clock::now();
    seed_only.Backward();
    return std::max(0.0, total - SecondsSince(t0) * 1e3);
  };

  // Rep 0 warms the buffer pool and is not recorded. The whole model and
  // the chain run in separate scopes so neither holds the other's graph.
  constexpr int kReps = 11;
  std::vector<double> emb_f, feat_f, time_f, pred_f, emb_b, feat_b, time_b,
      pred_b, whole_f, whole_b, feat_nodes;
  auto record = [](int rep, std::vector<double>* v, double ms) {
    if (rep > 0) v->push_back(ms);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    {
      ag::Variable loss;
      {
        Span s("core.model.fwd");
        loss = ag::BceWithLogits(whole->Forward(batch, &ctx), batch.y);
        record(rep, &whole_f, s.Stop());
      }
      Span s("core.model.bwd");
      loss.Backward();
      record(rep, &whole_b, s.Stop());
    }
    whole->ZeroGrad();
    Span chain("core.chain");
    ag::Variable e, f, r, loss, e_in, f_in, r_in;
    {
      Span s("core.embedding.fwd");
      e = embedding.Forward(ag::Constant(batch.x), batch.mask);
      record(rep, &emb_f, s.Stop());
    }
    e_in = leaf(e);
    {
      const int64_t n0 = ag::TapeNodesAllocated();
      Span s("core.feature_interaction.fwd");
      f = feature.Forward(e_in, &ctx);
      record(rep, &feat_f, s.Stop());
      record(rep, &feat_nodes,
             static_cast<double>(ag::TapeNodesAllocated() - n0));
    }
    f_in = leaf(f);
    {
      Span s("core.time_interaction.fwd");
      r = time.Forward(f_in, &ctx);
      record(rep, &time_f, s.Stop());
    }
    r_in = leaf(r);
    {
      Span s("core.prediction.fwd");
      loss = ag::BceWithLogits(
          ag::Reshape(prediction.Forward(r_in), {kTrainBatch}), batch.y);
      record(rep, &pred_f, s.Stop());
    }
    {
      Span s("core.prediction.bwd");
      loss.Backward();
      record(rep, &pred_b, s.Stop());
    }
    record(rep, &time_b, stage_backward(r, r_in, "core.time_interaction.bwd"));
    record(rep, &feat_b,
           stage_backward(f, f_in, "core.feature_interaction.bwd"));
    record(rep, &emb_b, stage_backward(e, e_in, "core.embedding.bwd"));
    embedding.ZeroGrad();
    feature.ZeroGrad();
    time.ZeroGrad();
    prediction.ZeroGrad();
  }
  const double fwd_sum =
      Median(emb_f) + Median(feat_f) + Median(time_f) + Median(pred_f);
  const double bwd_sum =
      Median(emb_b) + Median(feat_b) + Median(time_b) + Median(pred_b);
  report->Layer("core.embedding.fwd_ms", Median(emb_f), "ms");
  report->Layer("core.embedding.bwd_ms", Median(emb_b), "ms");
  report->Layer("core.feature_interaction.fwd_ms", Median(feat_f), "ms");
  report->Layer("core.feature_interaction.bwd_ms", Median(feat_b), "ms");
  report->Layer("core.time_interaction.fwd_ms", Median(time_f), "ms");
  report->Layer("core.time_interaction.bwd_ms", Median(time_b), "ms");
  report->Layer("core.feature_interaction.tape_nodes", Median(feat_nodes),
                "count");
  const double cov_f = fwd_sum / Median(whole_f);
  const double cov_b = bwd_sum / Median(whole_b);
  report->Layer("core.coverage_fwd", cov_f, "ratio");
  report->Layer("core.coverage_bwd", cov_b, "ratio");
  report->Layer("core.coverage",
                (fwd_sum + bwd_sum) / (Median(whole_f) + Median(whole_b)),
                "ratio");
}

}  // namespace

void RunEldaCohort(const Args& args, Report* report) {
  report->threads = "train+score kernel threads " + std::to_string(kThreads) +
                    ", per-patient callers 1 and " +
                    std::to_string(kConcurrentCallers);
  // Set-up: generate, split, standardise and prepare the cohort.
  std::vector<double> setup_s;
  std::unique_ptr<Cohort> cohort;
  for (int64_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    cohort = MakeCohort(args.seed);
    setup_s.push_back(SecondsSince(t0));
  }
  const Cohort& c = *cohort;
  report->input_digest = InputDigest(c);
  std::vector<int64_t> all(kAdmissions);
  for (int64_t i = 0; i < kAdmissions; ++i) all[static_cast<size_t>(i)] = i;

  // Cycles until the budget is spent (see NeedMoreCycles). Each ends with a
  // chunk of per-patient calls on the model it trained, at both loads. In
  // a traced run every other cycle records spans, so the overhead of
  // tracing is the difference between the two halves.
  Counters cyc;  // summed over the cycles' train and score phases
  const Clock::time_point start = Clock::now();
  const double budget = args.seconds * 0.85;
  std::vector<CycleStats> stats;
  std::vector<float> first_scores;
  std::unique_ptr<elda::core::EldaNet> model;
  double items = 0.0;
  while (NeedMoreCycles(stats, SecondsSince(start), budget)) {
    const int64_t cycle = static_cast<int64_t>(stats.size());
    CycleStats st;
    st.traced = args.trace && cycle % 2 == 1;
    Tracer::Get().Enable(st.traced);
    const CpuTicks ticks = CpuTicks::Now();
    const Counters c0 = Counters::Now();
    CycleResult r = RunCycle(c, args.seed, all, report);
    cyc.Accumulate(Counters::Now().Delta(c0));
    Tracer::Get().Enable(args.trace);
    st.bulk_per_s = r.train_items / r.train_s;
    st.score_per_s = kAdmissions / r.score_s;
    st.eval_s = r.eval_s;
    st.seconds = r.train_s + r.score_s;
    items += r.train_items + kAdmissions;
    if (cycle == 0) {
      first_scores = r.scores;
    } else {
      report->Check(SameBits(r.scores, first_scores),
                    "elda_cohort: a repeated cycle scored different bits");
    }
    elda::par::SetNumThreads(kThreads);
    const int64_t first = cycle * kChunkCalls;
    const std::vector<double> low =
        PerPatientLatencies(r.model.get(), c.prepared, first, kChunkCalls, 1,
                            &r.scores, "elda_cohort", report);
    const std::vector<double> high = PerPatientLatencies(
        r.model.get(), c.prepared, first, kChunkCalls, kConcurrentCallers,
        &r.scores, "elda_cohort", report);
    st.low_p50 = Percentile(low, 50);
    st.low_p90 = Percentile(low, 90);
    st.high_p50 = Percentile(high, 50);
    st.high_p90 = Percentile(high, 90);
    st.steal_pct = CpuTicks::Now().StealPctSince(ticks);
    stats.push_back(st);
    model = std::move(r.model);
  }

  // Thread-count invariance: the batch scores at one thread, serially.
  {
    train::InferenceOptions opts;
    opts.batch_size = kScoreBatch;
    opts.num_threads = 1;
    opts.parallel = false;
    elda::par::ScopedNumThreads one(1);
    const std::vector<float> serial =
        train::Trainer::Predict(model.get(), c.prepared, all,
                                data::Task::kMortality, opts)
            .scores;
    report->Check(SameBits(serial, first_scores),
                  "elda_cohort: Predict at 1 thread differs from " +
                      std::to_string(kThreads) + " threads");
  }
  Digest out;
  out.AddFloats(first_scores);
  report->output_digest = out.Hex();

  report->E2E("setup_s", Median(setup_s), "s");
  ReportCycles(stats, args.trace, report);

  if (!args.trace) return;
  ReportMemory(cyc, items, report);
  {
    elda::par::SetNumThreads(kThreads);
    elda::Rng rng(args.seed);
    data::Batcher batcher(&c.prepared, c.split.train, kTrainBatch,
                          data::Task::kMortality, &rng);
    auto probe_model = MakeModel(args.seed);
    ProbeTrainSteps(probe_model.get(), &batcher, kProbeSteps, args.seed,
                    report);
    ProbeCoreModules(c, args.seed, report);
  }
}

}  // namespace perfbench
