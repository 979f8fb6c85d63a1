#include "probes.h"

#include <cstring>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "optim/optimizer.h"
#include "trace.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace perfbench {

void ProbeTrainSteps(elda::train::SequenceModel* model,
                     elda::data::BatchSource* source, int64_t steps,
                     uint64_t seed, Report* report) {
  namespace ag = elda::ag;
  const std::vector<ag::Variable> params = model->Parameters();
  elda::optim::Adam adam(params, 1e-3f);
  elda::Rng rng(seed);
  elda::nn::ForwardContext ctx;
  ctx.training = true;
  ctx.rng = &rng;

  std::vector<double> fwd, bwd, opt, step, tape;
  elda::data::Batch batch;
  source->StartEpoch();
  const Counters before = Counters::Now();
  for (int64_t s = 0; s < steps; ++s) {
    if (!source->Next(&batch)) {
      source->StartEpoch();
      if (!source->Next(&batch)) break;
    }
    Span step_span("train.step");
    const int64_t nodes0 = ag::TapeNodesAllocated();
    adam.ZeroGrad();
    ag::Variable loss;
    {
      Span span("train.forward");
      loss = ag::BceWithLogits(model->Forward(batch, &ctx), batch.y);
      fwd.push_back(span.Stop());
    }
    tape.push_back(
        static_cast<double>(ag::TapeNodesAllocated() - nodes0));
    {
      Span span("autograd.backward");
      loss.Backward();
      bwd.push_back(span.Stop());
    }
    {
      Span span("optim.step");
      elda::optim::ClipGradNorm(params, 5.0f);
      adam.Step();
      opt.push_back(span.Stop());
    }
    step.push_back(step_span.Stop());
  }
  const Counters d = Counters::Now().Delta(before);
  const double n = static_cast<double>(step.size());
  report->Check(n > 0, "step probe ran no steps");
  report->Layer("train.forward_ms", Median(fwd), "ms");
  report->Layer("train.step_ms_p50", Median(step), "ms");
  report->Layer("autograd.backward_ms", Median(bwd), "ms");
  report->Layer("autograd.tape_nodes_per_step", Median(tape), "count");
  report->Layer("optim.step_ms", Median(opt), "ms");
  report->Layer("par.dispatches_per_step",
                n > 0 ? d.par.parallel_dispatches / n : 0.0, "count");
  report->Layer("par.chunks_per_dispatch",
                d.par.parallel_dispatches > 0
                    ? static_cast<double>(d.par.chunks) /
                          d.par.parallel_dispatches
                    : 0.0,
                "count");
  report->Layer("par.inline_runs_per_step",
                n > 0 ? d.par.inline_runs / n : 0.0, "count");
}

std::vector<double> PerPatientLatencies(
    const elda::train::SequenceModel* model,
    const std::vector<elda::data::PreparedSample>& prepared, int64_t first,
    int64_t calls, int64_t callers, const std::vector<float>* expected,
    const std::string& workload, Report* report) {
  namespace train = elda::train;
  std::vector<std::vector<double>> lat(static_cast<size_t>(callers));
  std::vector<int64_t> mismatches(static_cast<size_t>(callers), 0);
  const int64_t n = static_cast<int64_t>(prepared.size());
  auto caller = [&](int64_t w) {
    train::InferenceOptions opts;
    opts.batch_size = 1;
    opts.parallel = false;
    for (int64_t k = w; k < calls; k += callers) {
      const int64_t i = (first + k) % n;
      Span span("train.Predict.b1");
      const float s =
          train::Trainer::Predict(model, prepared, {i},
                                  elda::data::Task::kMortality, opts)
              .scores[0];
      lat[static_cast<size_t>(w)].push_back(span.Stop());
      if (expected != nullptr &&
          std::memcmp(&s, &(*expected)[static_cast<size_t>(i)],
                      sizeof(float)) != 0) {
        ++mismatches[static_cast<size_t>(w)];
      }
    }
  };
  if (callers == 1) {
    caller(0);
  } else {
    std::vector<std::thread> threads;
    for (int64_t w = 0; w < callers; ++w) threads.emplace_back(caller, w);
    for (std::thread& t : threads) t.join();
  }
  std::vector<double> all;
  int64_t bad = 0;
  for (size_t w = 0; w < lat.size(); ++w) {
    all.insert(all.end(), lat[w].begin(), lat[w].end());
    bad += mismatches[w];
  }
  report->attempted += static_cast<int64_t>(all.size());
  report->Check(bad == 0,
                workload + ": B=1 scores differ from the batched scores");
  return all;
}

bool NeedMoreCycles(const std::vector<CycleStats>& cycles, double elapsed_s,
                    double budget_s) {
  size_t steady = 0;
  for (const CycleStats& c : cycles) steady += c.steal_pct <= kMaxStealPct;
  return cycles.size() < 2 || elapsed_s < budget_s ||
         (steady < kMinSteadyCycles && elapsed_s < 2 * budget_s);
}

void ReportCycles(const std::vector<CycleStats>& cycles, bool trace,
                  Report* report) {
  std::vector<const CycleStats*> kept;
  for (const CycleStats& c : cycles) {
    if (c.steal_pct <= kMaxStealPct) kept.push_back(&c);
  }
  if (kept.size() < kMinSteadyCycles) {
    kept.clear();
    for (const CycleStats& c : cycles) kept.push_back(&c);
  }
  auto median = [&](double CycleStats::*field) {
    std::vector<double> v;
    for (const CycleStats* c : kept) v.push_back(c->*field);
    return Median(v);
  };
  report->E2E("bulk_per_s", median(&CycleStats::bulk_per_s), "1/s");
  report->E2E("score_per_s", median(&CycleStats::score_per_s), "1/s");
  report->E2E("p50_ms_low", median(&CycleStats::low_p50), "ms");
  report->E2E("p90_ms_low", median(&CycleStats::low_p90), "ms");
  report->E2E("p50_ms_high", median(&CycleStats::high_p50), "ms");
  report->E2E("p90_ms_high", median(&CycleStats::high_p90), "ms");
  if (!trace) return;
  report->Layer("train.eval_s", median(&CycleStats::eval_s), "s");
  // The first cycle also warms the buffer pool, so it is left out here.
  std::vector<double> plain, traced;
  for (const CycleStats* c : kept) {
    if (c == &cycles.front()) continue;
    (c->traced ? traced : plain).push_back(c->seconds);
  }
  report->Layer("trace.overhead_pct",
                plain.empty() || traced.empty()
                    ? 0.0
                    : 100.0 * (Median(traced) / Median(plain) - 1.0),
                "%");
}

void ReportMemory(const Counters& d, double items, Report* report) {
  report->Layer("mem.pool_hit_rate", d.pool.hit_rate(), "ratio");
  report->Layer("mem.sys_bytes_per_adm", d.pool.bytes_allocated / items, "B");
  report->Layer("mem.minflt_per_adm", d.usage.minflt / items, "count");
  report->Layer("mem.sys_time_share",
                d.usage.stime_s / (d.usage.utime_s + d.usage.stime_s),
                "ratio");
}

}  // namespace perfbench
