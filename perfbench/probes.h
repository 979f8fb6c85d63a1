// Traced-run probes shared by the closed-loop workloads.
//
// Trainer::Train runs forward, backward and the optimizer inside one call,
// so the benchmark cannot put spans between them from outside. The step
// probe replays the trainer's step (ZeroGrad, Forward, BceWithLogits,
// Backward, ClipGradNorm, Adam::Step) on the same model and batches, with
// a span around each layer call.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "data/pipeline.h"
#include "train/sequence_model.h"

namespace perfbench {

// Runs `steps` replica training steps of `model` on batches drawn from
// `source` (restarting its epoch as needed) and adds the train.*,
// autograd.*, optim.* and par.* per-layer metrics to `report`.
void ProbeTrainSteps(elda::train::SequenceModel* model,
                     elda::data::BatchSource* source, int64_t steps,
                     uint64_t seed, Report* report);

// Per-patient scoring: `callers` threads issue `calls` Trainer::Predict
// calls at B = 1 in total, over `prepared` from index `first` on (wrapping),
// and the latency of each call is returned in ms. With `expected`, every
// B = 1 score must equal (*expected)[i] bitwise — batching never changes a
// row's score.
std::vector<double> PerPatientLatencies(
    const elda::train::SequenceModel* model,
    const std::vector<elda::data::PreparedSample>& prepared, int64_t first,
    int64_t calls, int64_t callers, const std::vector<float>* expected,
    const std::string& workload, Report* report);

// What one cycle of a closed-loop workload measured: a training pass, a
// scoring pass, and a chunk of per-patient calls at each load.
struct CycleStats {
  double bulk_per_s = 0.0;   // items trained per second
  double score_per_s = 0.0;  // items scored per second
  double eval_s = 0.0;       // training wall time outside optimizer steps
  double seconds = 0.0;      // training + scoring wall time
  double low_p50 = 0.0, low_p90 = 0.0, high_p50 = 0.0, high_p90 = 0.0;
  double steal_pct = 0.0;    // CPU share the hypervisor took meanwhile
  bool traced = false;
};

// A cycle during which the hypervisor took more than this share of the CPU
// is left out of the medians when enough others are not.
constexpr double kMaxStealPct = 2.0;
constexpr size_t kMinSteadyCycles = 3;

// True while the cycle loop should go on: until `budget_s` is spent, and
// past it (up to twice the budget) while fewer than kMinSteadyCycles cycles
// ran on a quiet host.
bool NeedMoreCycles(const std::vector<CycleStats>& cycles, double elapsed_s,
                    double budget_s);

// Reports the closed-loop end-to-end metrics — medians over the cycles that
// ran on a quiet host, or over all when fewer than kMinSteadyCycles did —
// and, when traced, train.eval_s and trace.overhead_pct (traced against
// untraced cycles).
void ReportCycles(const std::vector<CycleStats>& cycles, bool trace,
                  Report* report);

// mem.* per-layer metrics from the counter delta over the measured cycles;
// `items` is the number of admissions those cycles trained plus scored.
void ReportMemory(const Counters& delta, double items, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
