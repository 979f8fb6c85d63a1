// Task-agnostic training loop used for every model in the evaluation.
//
// Mirrors the paper's protocol (Section V-A): Adam, initial learning rate
// 1e-3, batch size 64, 80/10/10 split, model selection on the validation
// set, metrics BCE / AUC-ROC / AUC-PR on the held-out test set. Early
// stopping monitors validation AUC-PR; the best-epoch parameters are
// restored before the final evaluation. Timing instrumentation feeds the
// Table III efficiency bench. Train, TrainMultiTask and TrainStreamed run
// one shared loop and differ only in where batches come from, which loss is
// computed and how validation is scored.

#ifndef ELDA_TRAIN_TRAINER_H_
#define ELDA_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/emr.h"
#include "data/pipeline.h"
#include "health/health.h"
#include "train/sequence_model.h"
#include "train/task_head.h"

namespace elda {
namespace train {

struct TrainerConfig {
  int64_t max_epochs = 20;
  int64_t batch_size = 64;
  float learning_rate = 1e-3f;
  float clip_norm = 5.0f;   // <= 0 disables clipping
  int64_t patience = 4;     // epochs without val AUC-PR improvement
  uint64_t seed = 1;
  bool verbose = false;     // per-epoch progress on stderr
  // Worker threads for the elda::par kernels and batched prediction during
  // this trainer's run, on the calling thread only; 0 = the process-wide
  // setting (--threads, ELDA_THREADS env, then hardware_concurrency).
  // Applied for the duration of Train().
  int64_t num_threads = 0;

  // -- Fault tolerance -------------------------------------------------------
  // When `checkpoint_path` is non-empty and `checkpoint_every` > 0, the full
  // run state (parameters, Adam moments/step, RNG, training-source cursor,
  // best-val snapshot, patience counters) is written atomically to
  // `checkpoint_path` every `checkpoint_every` epochs. With `resume` set,
  // every training entry point restores from an existing checkpoint and
  // continues; the resumed run converges to the bitwise-identical
  // parameters and metrics of an uninterrupted run.
  std::string checkpoint_path;
  int64_t checkpoint_every = 0;
  bool resume = false;

  // Per-step numerical-health monitoring and the recovery policy applied to
  // unhealthy steps (NaN/Inf loss or gradient norm, loss explosion).
  health::HealthConfig health;
};

// Batching/threading knobs shared by every inference surface: batched
// Trainer::Predict / Evaluate and the serve-side micro-batcher
// (serve/service.h). One struct so a knob added for one path exists on the
// other — there is deliberately no serve-local options type.
struct InferenceOptions {
  // Minibatch size: eval-mode batch for Predict / EvaluateMultiTask (a
  // BatchSource batches itself), the coalescing cap for the micro-batcher
  // (most observations arriving within one flush window that are scored as
  // a single StepForward call). The minibatch is the unit of padding: a
  // ragged minibatch pads every stay to its longest grid, and for every
  // registry model except GRU and GRU-D a stay's score depends on that
  // padded length. So on ragged cohorts scores change with batch_size; on
  // fixed-length cohorts they do not. Threads and `parallel` never change
  // them.
  int64_t batch_size = 256;
  // Thread count for this call (kernels and the scoring pool), on the
  // calling thread only; 0 = the process-wide setting (--threads /
  // ELDA_THREADS / hardware).
  int64_t num_threads = 0;
  // Score minibatches, or row slices of one, concurrently on the elda::par
  // pool. Slices keep their minibatch's padding and every work item writes
  // its own outputs, so results are bitwise identical to the serial path.
  // Ignored by the micro-batcher (one scoring thread by construction).
  bool parallel = true;
  // Optional attention-capture sink threaded into every ForwardContext on
  // this path (nullptr = capture nothing). Forces the serial path:
  // concurrent workers would interleave last-writer-wins captures.
  nn::CaptureSink* capture = nullptr;
};

// Scores and aligned labels for one index set, in `indices` order.
struct PredictResult {
  std::vector<float> scores;  // sigmoid probabilities
  std::vector<float> labels;  // task labels
};

struct EvalResult {
  double bce = 0.0;
  double auc_roc = 0.0;
  double auc_pr = 0.0;
};

// Per-head metrics for a multi-task evaluation, in the MultiHead's Add
// order. Per-step heads (decompensation) report masked, micro-averaged
// metrics over valid (score, label) cells: padding steps are excluded by
// the validity mask and warm-up steps by the non-finite-score rule (see
// metrics/metrics.h).
struct MultiTaskEvalResult {
  std::vector<std::string> tasks;    // task_name per head
  std::vector<EvalResult> per_task;  // aligned with `tasks`
  // Unweighted mean AUC-PR across heads — the model-selection metric of the
  // multi-task loop. With a single head this is that head's AUC-PR, so
  // single-task training through MultiHead early-stops identically to the
  // legacy loop.
  double mean_auc_pr = 0.0;

  // Metrics for a task by name; CHECK-fails when absent.
  const EvalResult& ForTask(const std::string& task) const;
};

struct MultiTaskTrainResult {
  MultiTaskEvalResult val;   // best-epoch parameters, validation split
  MultiTaskEvalResult test;  // best-epoch parameters, test split
  int64_t epochs_run = 0;
  int64_t best_epoch = 0;
  int64_t num_parameters = 0;  // trunk + heads
  double train_seconds_per_batch = 0.0;

  health::TrainStatus status = health::TrainStatus::kOk;
  std::string status_message;
  int64_t recoveries = 0;
  int64_t skipped_batches = 0;
  int64_t checkpoint_write_failures = 0;
};

struct TrainResult {
  EvalResult val;
  EvalResult test;
  int64_t epochs_run = 0;
  int64_t best_epoch = 0;
  double train_seconds_per_batch = 0.0;
  double predict_ms_per_sample = 0.0;
  int64_t num_parameters = 0;

  // Structured run outcome. kOk / kRecovered mean val/test metrics are
  // valid; anything else means the run ended early and `status_message`
  // says why (metrics are best-so-far for kAborted, zero otherwise).
  health::TrainStatus status = health::TrainStatus::kOk;
  std::string status_message;
  int64_t recoveries = 0;        // rollback-and-halve interventions taken
  int64_t skipped_batches = 0;   // unhealthy batches dropped (skip policy)
  int64_t checkpoint_write_failures = 0;
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig config) : config_(config) {}

  // Trains `model` on prepared samples under `split`, returns validation and
  // test metrics at the best validation epoch.
  TrainResult Train(SequenceModel* model,
                    const std::vector<data::PreparedSample>& prepared,
                    const data::SplitIndices& split, data::Task task) const;

  // Runs the model graph-free (ag::NoGradScope, inference-mode
  // ForwardContext) over the given index set in minibatches and returns
  // sigmoid probabilities plus the aligned task labels, both in `indices`
  // order. Predict, PredictSource and EvaluateMultiTask share one scoring
  // loop: with `options.parallel` set it scores windows of minibatches, or
  // row slices of them, across the elda::par pool, each worker with its
  // own context.
  static PredictResult Predict(const SequenceModel* model,
                               const std::vector<data::PreparedSample>& prepared,
                               const std::vector<int64_t>& indices,
                               data::Task task,
                               const InferenceOptions& options = {});

  // Thin metrics wrapper over Predict(): BCE / AUC-ROC / AUC-PR on the
  // given index set.
  static EvalResult Evaluate(const SequenceModel* model,
                             const std::vector<data::PreparedSample>& prepared,
                             const std::vector<int64_t>& indices,
                             data::Task task,
                             const InferenceOptions& options = {});

  // -- Multi-task (encoder + task heads) ------------------------------------
  //
  // Trains one encoder trunk under a MultiHead's weighted joint loss. The
  // optimizer, gradient clipping, health monitoring, and epoch-boundary
  // checkpoint/resume cover trunk AND head parameters (bundled via
  // ModelWithHead, trunk first); an interrupted-and-resumed run converges to
  // bitwise-identical parameters. `task` fixes which primary label rides in
  // batch.y (what BinaryTerminalHead trains on); per-step and per-head
  // labels come from the batch's multi-task slabs. Model selection monitors
  // the unweighted mean AUC-PR across heads, and with a single
  // BinaryTerminalHead of weight 1 the whole loop — batches, dropout draws,
  // losses, updates, early stopping — is bitwise the single-task Train().
  MultiTaskTrainResult TrainMultiTask(
      SequenceModel* model, MultiHead* heads,
      const std::vector<data::PreparedSample>& prepared,
      const data::SplitIndices& split,
      data::Task task = data::Task::kMortality) const;

  // Graph-free multi-task evaluation: one encoding bundle per work item,
  // every head scored over it, masked metrics per head. Minibatch
  // composition and scheduling match Predict(); on fixed-length cohorts head
  // logits are batching-independent, so scores are bitwise stable across
  // batch sizes.
  static MultiTaskEvalResult EvaluateMultiTask(
      const SequenceModel* model, const MultiHead* heads,
      const std::vector<data::PreparedSample>& prepared,
      const std::vector<int64_t>& indices, data::Task task,
      const InferenceOptions& options = {});

  // -- Streamed (out-of-core) paths -----------------------------------------
  //
  // The same protocol as Train/Predict/Evaluate, but batches come from a
  // data::BatchSource (the in-RAM Batcher or the out-of-core ShardedLoader),
  // so cohorts never need to fit in memory. Checkpoints carry the source's
  // exported cursor state, as they do for Train (whose Batcher exports its
  // permutation); with a self-contained source (ShardedLoader owns its
  // shuffle rng) resume is bitwise. Labels ride in each batch's y, so no
  // task/split arguments are needed.

  // One full pass over `source` (StartEpoch + drain), graph-free; scores and
  // labels in the source's epoch order. Only the calling thread calls
  // `source->Next`, so a source whose producer uses the pool itself
  // (ShardedLoader's prefetch thread) is safe to score in parallel.
  static PredictResult PredictSource(const SequenceModel* model,
                                     data::BatchSource* source,
                                     const InferenceOptions& options = {});

  // Metrics wrapper over PredictSource().
  static EvalResult EvaluateSource(const SequenceModel* model,
                                   data::BatchSource* source,
                                   const InferenceOptions& options = {});

  // Trains on `train`, selecting on `val` and reporting on `test` (either
  // may be null: no early stopping / no test metrics respectively). Health
  // policies, fault injection, and epoch-boundary checkpoint/resume match
  // Train; the rollback and resume paths restore the training source via
  // RestoreState.
  TrainResult TrainStreamed(SequenceModel* model, data::BatchSource* train,
                            data::BatchSource* val,
                            data::BatchSource* test) const;

 private:
  TrainerConfig config_;
};

}  // namespace train
}  // namespace elda

#endif  // ELDA_TRAIN_TRAINER_H_
