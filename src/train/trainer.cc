#include "train/trainer.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>

#include "autograd/ops.h"
#include "health/health.h"
#include "metrics/metrics.h"
#include "nn/serialize.h"
#include "optim/optimizer.h"
#include "par/par.h"
#include "tensor/tensor_ops.h"
#include "train/checkpoint.h"
#include "util/stopwatch.h"

namespace elda {
namespace train {
namespace {

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

// Injected fault: corrupts the first available gradient with a NaN, the way
// a numerically blown-up backward pass would.
void PoisonGradients(const std::vector<ag::Variable>& params) {
  for (const ag::Variable& p : params) {
    if (!p.has_grad()) continue;
    // Gradients are logically mutable state owned by the optimizer loop.
    const_cast<float*>(p.grad().data())[0] =
        std::numeric_limits<float>::quiet_NaN();
    return;
  }
}

// What differs between Train, TrainMultiTask and TrainStreamed; the loop
// below owns everything else.
struct LoopSteps {
  nn::Module* trainable = nullptr;  // parameters optimized and checkpointed
  std::string name;                 // model name for log lines
  // Training batches; null or empty means there is nothing to train on.
  // Its ExportState cursor rides in rollback snapshots and checkpoints.
  data::BatchSource* source = nullptr;
  // Loss of one training batch under the training-mode context.
  std::function<ag::Variable(const data::Batch&, nn::ForwardContext*)> loss;
  // Validation metrics of the current parameters; model selection and early
  // stopping monitor auc_pr. Unset: no selection, the last epoch's
  // parameters are kept.
  std::function<EvalResult()> validate;
};

// In-memory state captured at each epoch boundary, enough to deterministically
// replay the epoch after a rollback (the checkpoint file holds the same state
// plus bookkeeping for cross-process resume).
struct RunSnapshot {
  std::vector<Tensor> params;
  optim::AdamState adam;
  RngState rng;
  std::string source;
};

// The paper's training protocol (Section V-A) behind every entry point: Adam,
// per-step health checks with the skip / rollback / abort policies, injected
// gradient faults, epoch-boundary checkpoints and resume, early stopping on
// validation AUC-PR, and best-epoch parameter restore. `rng` drives dropout
// (and whatever else the caller wired to it) and is checkpointed. Fills the
// fields `Result` shares between TrainResult and MultiTaskTrainResult, and
// the best epoch's validation metrics into *best_val. Returns false when
// nothing was trained (empty source, unusable checkpoint); result->status
// says why.
template <typename Result>
bool RunTrainingLoop(const TrainerConfig& config, const LoopSteps& steps,
                     Rng* rng, Result* result, EvalResult* best_val) {
  result->num_parameters = steps.trainable->NumParameters();
  data::BatchSource* source = steps.source;
  if (source == nullptr || source->NumBatchesPerEpoch() == 0) {
    result->status = health::TrainStatus::kEmptyTrainSplit;
    result->status_message = "train split is empty; nothing to train on";
    return false;
  }
  std::vector<ag::Variable> params = steps.trainable->Parameters();
  optim::Adam adam(params, config.learning_rate);
  health::HealthMonitor monitor(config.health);
  health::FaultInjector* inject = health::GlobalFaultInjector();
  const bool checkpointing =
      config.checkpoint_every > 0 && !config.checkpoint_path.empty();

  double best_val_auc_pr = -1.0;
  std::vector<Tensor> best_params;
  int64_t epochs_without_improvement = 0;
  double total_batch_seconds = 0.0;
  int64_t total_batches = 0;
  int64_t start_epoch = 0;
  int64_t global_step = 0;  // optimizer steps, for deterministic faults

  if (config.resume && !config.checkpoint_path.empty() &&
      FileExists(config.checkpoint_path)) {
    TrainCheckpoint ckpt;
    std::string err;
    if (!LoadTrainCheckpoint(config.checkpoint_path, &ckpt, &err) ||
        !nn::DecodeParameters(steps.trainable, ckpt.params_blob, &err)) {
      result->status = health::TrainStatus::kCheckpointError;
      result->status_message = err;
      return false;
    }
    if (!source->RestoreState(ckpt.source_state)) {
      result->status = health::TrainStatus::kCheckpointError;
      result->status_message = config.checkpoint_path +
                               " was written for a different train split "
                               "(its source state does not restore here)";
      return false;
    }
    adam.RestoreState(ckpt.adam);
    rng->RestoreState(ckpt.rng);
    start_epoch = ckpt.next_epoch;
    best_val_auc_pr = ckpt.best_val_auc_pr;
    best_params = std::move(ckpt.best_params);
    epochs_without_improvement = ckpt.epochs_without_improvement;
    total_batch_seconds = ckpt.total_batch_seconds;
    total_batches = ckpt.total_batches;
    global_step = ckpt.total_batches;
    *best_val = ckpt.best_val;
    result->best_epoch = ckpt.best_epoch;
    result->epochs_run = ckpt.epochs_run;
    result->recoveries = ckpt.recoveries;
    result->skipped_batches = ckpt.skipped_batches;
    if (epochs_without_improvement > config.patience) {
      // Early stopping had already triggered when this checkpoint was
      // written; skip straight to finalization so the resumed run matches
      // the uninterrupted one.
      start_epoch = config.max_epochs;
    }
    if (config.verbose) {
      std::cerr << steps.name << " resumed from " << config.checkpoint_path
                << " at epoch " << start_epoch << "\n";
    }
  }

  auto take_snapshot = [&]() {
    RunSnapshot snap;
    snap.params.reserve(params.size());
    for (const ag::Variable& p : params) {
      snap.params.push_back(p.value().Clone());
    }
    snap.adam = adam.ExportState();
    snap.rng = rng->SaveState();
    snap.source = source->ExportState();
    return snap;
  };
  auto restore_snapshot = [&](const RunSnapshot& snap) {
    for (size_t i = 0; i < params.size(); ++i) {
      *params[i].mutable_value() = snap.params[i].Clone();
    }
    adam.RestoreState(snap.adam);
    rng->RestoreState(snap.rng);
    ELDA_CHECK(source->RestoreState(snap.source));
  };
  auto write_checkpoint = [&](int64_t next_epoch) {
    TrainCheckpoint ckpt;
    ckpt.next_epoch = next_epoch;
    ckpt.epochs_run = result->epochs_run;
    ckpt.best_epoch = result->best_epoch;
    ckpt.epochs_without_improvement = epochs_without_improvement;
    ckpt.total_batches = total_batches;
    ckpt.recoveries = result->recoveries;
    ckpt.skipped_batches = result->skipped_batches;
    ckpt.best_val_auc_pr = best_val_auc_pr;
    ckpt.best_val = *best_val;
    ckpt.total_batch_seconds = total_batch_seconds;
    ckpt.params_blob = nn::EncodeParameters(*steps.trainable);
    ckpt.adam = adam.ExportState();
    ckpt.rng = rng->SaveState();
    ckpt.source_state = source->ExportState();
    ckpt.best_params.reserve(best_params.size());
    for (const Tensor& t : best_params) {
      ckpt.best_params.push_back(t.Clone());
    }
    std::string err;
    if (!SaveTrainCheckpoint(config.checkpoint_path, ckpt, &err)) {
      ++result->checkpoint_write_failures;
      std::cerr << steps.name << ": checkpoint write failed (" << err
                << "); training continues\n";
    }
  };

  // Training-mode forward context. Dropout draws come from the checkpointed
  // rng so interrupted-and-resumed runs stay bitwise identical to
  // uninterrupted ones.
  nn::ForwardContext train_ctx;
  train_ctx.training = true;
  train_ctx.rng = rng;

  bool aborted = false;
  for (int64_t epoch = start_epoch;
       epoch < config.max_epochs && !aborted; ++epoch) {
    // Last-good state for rollback recovery; refreshed each epoch boundary
    // (before the shuffle, so a replayed epoch draws the same batches).
    const RunSnapshot boundary = take_snapshot();
    double epoch_loss = 0.0;
    int64_t epoch_batches = 0;
    bool epoch_complete = false;
    while (!epoch_complete && !aborted) {
      source->StartEpoch();
      epoch_loss = 0.0;
      epoch_batches = 0;
      bool rolled_back = false;
      data::Batch batch;
      while (source->Next(&batch)) {
        Stopwatch sw;
        adam.ZeroGrad();
        ag::Variable loss = steps.loss(batch, &train_ctx);
        loss.Backward();
        if (inject->ConsumePoisonGrad(global_step)) {
          PoisonGradients(params);
        }
        // The returned norm doubles as a fused NaN/Inf scan over the
        // post-clip gradients (non-finite norms pass through unscaled).
        const float grad_norm =
            config.clip_norm > 0.0f
                ? optim::ClipGradNorm(params, config.clip_norm)
                : optim::GlobalGradNorm(params);
        const double loss_value = loss.value()[0];
        ++global_step;
        const health::StepVerdict verdict =
            monitor.Check(loss_value, grad_norm);
        if (verdict != health::StepVerdict::kHealthy) {
          if (config.verbose) {
            std::cerr << steps.name << " epoch " << epoch << " step "
                      << global_step - 1 << ": "
                      << health::StepVerdictName(verdict) << " (loss "
                      << loss_value << ", grad norm " << grad_norm << ")\n";
          }
          if (config.health.policy == health::RecoveryPolicy::kSkipBatch &&
              result->skipped_batches < config.health.max_skipped_batches) {
            ++result->skipped_batches;
            continue;  // drop this batch's update
          }
          if (config.health.policy == health::RecoveryPolicy::kRollback &&
              result->recoveries < config.health.max_rollbacks) {
            ++result->recoveries;
            const float halved_lr = adam.lr() * 0.5f;
            restore_snapshot(boundary);
            adam.set_lr(halved_lr);
            monitor.Reset();
            rolled_back = true;
            break;  // replay the epoch from the boundary snapshot
          }
          // kAbort, or the skip/rollback budget is exhausted.
          aborted = true;
          result->status_message =
              std::string("unhealthy step (") +
              health::StepVerdictName(verdict) + ") at step " +
              std::to_string(global_step - 1) + "; policy " +
              (config.health.policy == health::RecoveryPolicy::kAbort
                   ? "abort"
                   : "recovery budget exhausted");
          break;
        }
        adam.Step();
        monitor.Observe(loss_value);
        total_batch_seconds += sw.Seconds();
        ++total_batches;
        epoch_loss += loss_value;
        ++epoch_batches;
      }
      epoch_complete = !rolled_back;
    }
    result->epochs_run = epoch + 1;
    if (aborted) break;

    bool stop = false;
    EvalResult val;
    if (steps.validate) {
      val = steps.validate();
      if (val.auc_pr > best_val_auc_pr) {
        best_val_auc_pr = val.auc_pr;
        *best_val = val;
        result->best_epoch = epoch;
        epochs_without_improvement = 0;
        best_params.clear();
        for (const ag::Variable& p : params) {
          best_params.push_back(p.value().Clone());
        }
      } else if (++epochs_without_improvement > config.patience) {
        stop = true;
      }
    }
    if (config.verbose) {
      std::cerr << steps.name << " epoch " << epoch << " train_loss="
                << (epoch_batches > 0 ? epoch_loss / epoch_batches : 0.0)
                << " val_auc_pr=" << val.auc_pr << "\n";
    }
    if (checkpointing && (epoch + 1) % config.checkpoint_every == 0) {
      write_checkpoint(epoch + 1);
    }
    if (stop) break;
  }

  // Restore the best-validation parameters before any final evaluation.
  if (!best_params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      *params[i].mutable_value() = best_params[i];
    }
  }
  result->status = aborted ? health::TrainStatus::kAborted
                   : (result->recoveries > 0 || result->skipped_batches > 0)
                       ? health::TrainStatus::kRecovered
                       : health::TrainStatus::kOk;
  result->train_seconds_per_batch =
      total_batches > 0 ? total_batch_seconds / total_batches : 0.0;
  return true;
}

// Train's and TrainMultiTask's source: the train split, shuffled by the
// loop's rng so shuffles and dropout share one checkpointed stream. Null
// when the split is empty.
std::unique_ptr<data::Batcher> SplitBatcher(
    const std::vector<data::PreparedSample>& prepared,
    const data::SplitIndices& split, int64_t batch_size, data::Task task,
    Rng* rng) {
  if (split.train.empty()) return nullptr;
  return std::make_unique<data::Batcher>(&prepared, split.train, batch_size,
                                         task, rng);
}

// -- The scoring loop ----------------------------------------------------------

// One padded minibatch of a scoring pass. A BatchSource minibatch arrives
// materialized in `batch`; an index-list minibatch carries its rows in
// `indices` and is assembled by the work items that score it, so MakeBatch
// runs on the pool, not on the calling thread.
struct Minibatch {
  data::Batch batch;
  const std::vector<data::PreparedSample>* prepared = nullptr;
  std::vector<int64_t> indices;
  data::Task task = data::Task::kMortality;
  int64_t rows = 0;
  int64_t steps = 0;  // padded step count, kept by every row slice

  // Rows [begin, end), padded to `steps`.
  data::Batch Rows(int64_t begin, int64_t end) const {
    if (prepared != nullptr) {
      return data::MakeBatch(
          *prepared, {indices.begin() + begin, indices.begin() + end}, task,
          steps);
    }
    if (begin == 0 && end == rows) return batch;
    return data::SliceRows(batch, begin, end);
  }
};

// Produces the pass's minibatches in source order; false at the end.
using MinibatchStream = std::function<bool(Minibatch*)>;

// `indices` in minibatches of `batch_size` rows.
MinibatchStream IndexMinibatches(
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task, int64_t batch_size) {
  batch_size = std::max<int64_t>(1, batch_size);
  return [&prepared, &indices, task, batch_size,
          start = size_t{0}](Minibatch* mb) mutable {
    if (start >= indices.size()) return false;
    const size_t end =
        std::min(indices.size(), start + static_cast<size_t>(batch_size));
    mb->prepared = &prepared;
    mb->task = task;
    mb->indices.assign(indices.begin() + start, indices.begin() + end);
    mb->rows = static_cast<int64_t>(end - start);
    for (int64_t i : mb->indices) {
      mb->steps = std::max(mb->steps, prepared[i].x.shape(0));
    }
    start = end;
    return true;
  };
}

// One epoch of `source`, as it batches it. The epoch starts on the first
// pull, inside RunScoringLoop's thread-count scope, so a prefetching source's
// producer decodes at the scoring call's thread count.
MinibatchStream SourceMinibatches(data::BatchSource* source) {
  return [source, started = false](Minibatch* mb) mutable {
    if (!started) {
      source->StartEpoch();
      started = true;
    }
    if (!source->Next(&mb->batch)) return false;
    mb->rows = mb->batch.x.shape(0);
    mb->steps = mb->batch.x.shape(1);
    return true;
  };
}

// What one scoring pass collects, one stream per head (Predict has one).
struct Scored {
  explicit Scored(size_t streams)
      : scores(streams), labels(streams), valid(streams) {}
  void Append(const Scored& other) {
    for (size_t h = 0; h < scores.size(); ++h) {
      scores[h].insert(scores[h].end(), other.scores[h].begin(),
                       other.scores[h].end());
      labels[h].insert(labels[h].end(), other.labels[h].begin(),
                       other.labels[h].end());
      valid[h].insert(valid[h].end(), other.valid[h].begin(),
                      other.valid[h].end());
    }
  }
  std::vector<std::vector<float>> scores, labels;
  std::vector<std::vector<uint8_t>> valid;
};

// Scores one batch graph-free under `ctx`, appending to `out`.
using ScoreFn =
    std::function<void(const data::Batch&, nn::ForwardContext*, Scored*)>;

// Rows [begin, end) of window minibatch `minibatch`.
struct WorkItem {
  size_t minibatch = 0;
  int64_t begin = 0;
  int64_t end = 0;
};

// Cuts a window of minibatches into work items for `threads` threads, in
// source order. A window of at least `threads` minibatches is scored whole;
// a shorter one, such as a one-minibatch validation split or a source's
// last batches, cuts each minibatch into ceil(threads / n) equal row slices
// (never more than its rows), so it still fills the pool.
std::vector<WorkItem> PlanWorkItems(const std::vector<Minibatch>& window,
                                    int64_t threads) {
  const int64_t n = static_cast<int64_t>(window.size());
  const int64_t cuts = n >= threads ? 1 : (threads + n - 1) / n;
  std::vector<WorkItem> items;
  for (size_t m = 0; m < window.size(); ++m) {
    const int64_t rows = window[m].rows;
    const int64_t slices = std::min(rows, cuts);
    for (int64_t k = 0; k < slices; ++k) {
      items.push_back({m, rows * k / slices, rows * (k + 1) / slices});
    }
  }
  return items;
}

// The scoring loop behind Predict, PredictSource and EvaluateMultiTask.
// Only the calling thread pulls minibatches from `next`, a window of up to
// 2 x NumThreads() at a time, between the window's pool jobs: a source is a
// single-consumer stream. A producer it waits on (ShardedLoader's prefetch
// thread, which decodes with ParallelFor) runs its own decode chunks on the
// shared pool, so a pull from inside pool work would not deadlock, but it
// would park a pool thread while the producer decodes, a thread lost to
// both the window and the decode. The window's work items (PlanWorkItems)
// are scored graph-free on the pool, each worker with its own context, and
// their outputs are appended in source order. Row slices keep their
// minibatch's padding and models score rows independently, so every layout
// and thread count yields the same bits as the serial path. That path —
// `parallel` off, one thread, or a capture sink, which is shared
// last-writer-wins state — scores whole minibatches one by one on the
// calling thread, its kernels still free to use the pool.
Scored RunScoringLoop(const InferenceOptions& options, size_t streams,
                      const MinibatchStream& next, const ScoreFn& score) {
  par::ScopedNumThreads scoped_threads(options.num_threads);
  const int64_t threads = par::NumThreads();
  const bool parallel =
      options.parallel && options.capture == nullptr && threads > 1;
  const size_t window_cap = parallel ? static_cast<size_t>(2 * threads) : 1;
  Scored out(streams);
  std::vector<Minibatch> window;
  for (bool more = true; more;) {
    window.clear();
    while (window.size() < window_cap) {
      Minibatch mb;
      more = next(&mb);
      if (!more) break;
      window.push_back(std::move(mb));
    }
    if (window.empty()) break;
    if (!parallel) {
      ag::NoGradScope no_grad;
      nn::ForwardContext ctx;
      ctx.capture = options.capture;
      score(window[0].Rows(0, window[0].rows), &ctx, &out);
      continue;
    }
    const std::vector<WorkItem> items = PlanWorkItems(window, threads);
    std::vector<Scored> scored(items.size(), Scored(streams));
    par::ParallelFor(
        0, static_cast<int64_t>(items.size()), /*grain=*/1,
        [&](int64_t i0, int64_t i1) {
          // Grad mode is a thread-local flag, so the scope must be opened
          // on each worker, not around the ParallelFor call.
          ag::NoGradScope no_grad;
          nn::ForwardContext ctx;  // inference mode, one per worker range
          for (int64_t i = i0; i < i1; ++i) {
            const WorkItem& item = items[static_cast<size_t>(i)];
            score(window[item.minibatch].Rows(item.begin, item.end), &ctx,
                  &scored[static_cast<size_t>(i)]);
          }
        });
    for (const Scored& s : scored) out.Append(s);
  }
  return out;
}

// Sigmoid of the model's terminal logits, labelled with batch.y.
ScoreFn TerminalScores(const SequenceModel* model) {
  return [model](const data::Batch& batch, nn::ForwardContext* ctx,
                 Scored* out) {
    const Tensor probs = Sigmoid(model->Forward(batch, ctx).value());
    for (int64_t i = 0; i < probs.size(); ++i) {
      out->scores[0].push_back(probs[i]);
      out->labels[0].push_back(batch.y[i]);
    }
  };
}

PredictResult ToPredictResult(Scored scored) {
  PredictResult result;
  result.scores = std::move(scored.scores[0]);
  result.labels = std::move(scored.labels[0]);
  return result;
}

EvalResult Metrics(const PredictResult& predicted) {
  EvalResult result;
  result.bce = metrics::BceLoss(predicted.scores, predicted.labels);
  result.auc_roc = metrics::AucRoc(predicted.scores, predicted.labels);
  result.auc_pr = metrics::AucPr(predicted.scores, predicted.labels);
  return result;
}

}  // namespace

PredictResult Trainer::Predict(
    const SequenceModel* model,
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task,
    const InferenceOptions& options) {
  return ToPredictResult(RunScoringLoop(
      options, 1,
      IndexMinibatches(prepared, indices, task, options.batch_size),
      TerminalScores(model)));
}

EvalResult Trainer::Evaluate(
    const SequenceModel* model,
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task,
    const InferenceOptions& options) {
  return Metrics(Predict(model, prepared, indices, task, options));
}

TrainResult Trainer::Train(SequenceModel* model,
                           const std::vector<data::PreparedSample>& prepared,
                           const data::SplitIndices& split,
                           data::Task task) const {
  // Pin the thread count for the whole run (kernels + eval batching);
  // num_threads == 0 leaves the global --threads / ELDA_THREADS setting.
  par::ScopedNumThreads scoped_threads(config_.num_threads);
  TrainResult result;
  Rng rng(config_.seed);
  const std::unique_ptr<data::Batcher> batcher =
      SplitBatcher(prepared, split, config_.batch_size, task, &rng);
  LoopSteps steps;
  steps.trainable = model;
  steps.name = model->name();
  steps.source = batcher.get();
  steps.loss = [&](const data::Batch& batch, nn::ForwardContext* ctx) {
    return ag::BceWithLogits(model->Forward(batch, ctx), batch.y);
  };
  steps.validate = [&] { return Evaluate(model, prepared, split.val, task); };
  if (!RunTrainingLoop(config_, steps, &rng, &result, &result.val)) {
    return result;
  }
  result.test = Evaluate(model, prepared, split.test, task);

  // Single-sample prediction latency (Table III's "Prediction (ms)"),
  // measured on the graph-free inference path like Predict().
  if (!split.test.empty()) {
    ag::NoGradScope no_grad;
    const int64_t reps = 20;
    Stopwatch sw;
    for (int64_t r = 0; r < reps; ++r) {
      data::Batch one =
          data::MakeBatch(prepared, {split.test[0]}, task);
      model->Forward(one);
    }
    result.predict_ms_per_sample = sw.Milliseconds() / reps;
  }
  return result;
}

const EvalResult& MultiTaskEvalResult::ForTask(const std::string& task) const {
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] == task) return per_task[i];
  }
  ELDA_CHECK(false) << "no head evaluated for task " << task;
  return per_task.front();  // unreachable
}

MultiTaskEvalResult Trainer::EvaluateMultiTask(
    const SequenceModel* model, const MultiHead* heads,
    const std::vector<data::PreparedSample>& prepared,
    const std::vector<int64_t>& indices, data::Task task,
    const InferenceOptions& options) {
  ELDA_CHECK(model != nullptr && heads != nullptr && heads->size() > 0);
  const int64_t num_heads = heads->size();
  MultiTaskEvalResult result;
  result.tasks.reserve(num_heads);
  for (int64_t h = 0; h < num_heads; ++h) {
    result.tasks.push_back(heads->head(h).task_name());
  }
  const bool want_steps = heads->wants_steps();
  const Scored scored = RunScoringLoop(
      options, static_cast<size_t>(num_heads),
      IndexMinibatches(prepared, indices, task, options.batch_size),
      [&](const data::Batch& batch, nn::ForwardContext* ctx, Scored* out) {
        const Encoding enc = model->Encode(batch, ctx, want_steps);
        for (int64_t h = 0; h < num_heads; ++h) {
          const TaskHead& head = heads->head(h);
          const Tensor probs = Sigmoid(head.Logits(*model, enc, ctx).value());
          head.Collect(*model, probs, batch, &out->scores[h],
                       &out->labels[h], &out->valid[h]);
        }
      });
  result.per_task.resize(num_heads);
  for (int64_t h = 0; h < num_heads; ++h) {
    EvalResult& er = result.per_task[h];
    er.bce = metrics::BceLoss(scored.scores[h], scored.labels[h],
                              scored.valid[h]);
    er.auc_roc = metrics::AucRoc(scored.scores[h], scored.labels[h],
                                 scored.valid[h]);
    er.auc_pr = metrics::AucPr(scored.scores[h], scored.labels[h],
                               scored.valid[h]);
    result.mean_auc_pr += er.auc_pr / num_heads;
  }
  return result;
}

MultiTaskTrainResult Trainer::TrainMultiTask(
    SequenceModel* model, MultiHead* heads,
    const std::vector<data::PreparedSample>& prepared,
    const data::SplitIndices& split, data::Task task) const {
  ELDA_CHECK(model != nullptr && heads != nullptr && heads->size() > 0);
  par::ScopedNumThreads scoped_threads(config_.num_threads);
  // The optimizer, checkpoint blob, and best-params snapshots cover the
  // trunk first, then each head in Add order.
  ModelWithHead bundle(model, heads);
  MultiTaskTrainResult result;
  Rng rng(config_.seed);
  const std::unique_ptr<data::Batcher> batcher =
      SplitBatcher(prepared, split, config_.batch_size, task, &rng);
  const bool want_steps = heads->wants_steps();
  LoopSteps steps;
  steps.trainable = &bundle;
  steps.name = model->name();
  steps.source = batcher.get();
  steps.loss = [&](const data::Batch& batch, nn::ForwardContext* ctx) {
    const Encoding enc = model->Encode(batch, ctx, want_steps);
    return heads->JointLoss(*model, enc, batch, ctx);
  };
  // Selection monitors the mean AUC-PR across heads.
  steps.validate = [&] {
    EvalResult selection;
    selection.auc_pr =
        EvaluateMultiTask(model, heads, prepared, split.val, task)
            .mean_auc_pr;
    return selection;
  };
  EvalResult best_selection;
  if (!RunTrainingLoop(config_, steps, &rng, &result, &best_selection)) {
    return result;
  }
  // Val/test metrics are (re)computed on the restored best parameters rather
  // than carried through the checkpoint, so interrupted-and-resumed runs
  // report bitwise-identical numbers to uninterrupted ones.
  if (result.status != health::TrainStatus::kAborted) {
    result.val = EvaluateMultiTask(model, heads, prepared, split.val, task);
    result.test = EvaluateMultiTask(model, heads, prepared, split.test, task);
  }
  return result;
}

PredictResult Trainer::PredictSource(const SequenceModel* model,
                                     data::BatchSource* source,
                                     const InferenceOptions& options) {
  ELDA_CHECK(source != nullptr);
  return ToPredictResult(RunScoringLoop(options, 1, SourceMinibatches(source),
                                        TerminalScores(model)));
}

EvalResult Trainer::EvaluateSource(const SequenceModel* model,
                                   data::BatchSource* source,
                                   const InferenceOptions& options) {
  return Metrics(PredictSource(model, source, options));
}

TrainResult Trainer::TrainStreamed(SequenceModel* model,
                                   data::BatchSource* train,
                                   data::BatchSource* val,
                                   data::BatchSource* test) const {
  ELDA_CHECK(train != nullptr);
  par::ScopedNumThreads scoped_threads(config_.num_threads);
  TrainResult result;
  Rng rng(config_.seed);  // dropout stream; the source owns its shuffle
  LoopSteps steps;
  steps.trainable = model;
  steps.name = model->name();
  steps.source = train;
  steps.loss = [&](const data::Batch& batch, nn::ForwardContext* ctx) {
    return ag::BceWithLogits(model->Forward(batch, ctx), batch.y);
  };
  if (val != nullptr) {
    steps.validate = [&] { return EvaluateSource(model, val); };
  }
  if (!RunTrainingLoop(config_, steps, &rng, &result, &result.val)) {
    return result;
  }
  if (test != nullptr) result.test = EvaluateSource(model, test);
  return result;
}

}  // namespace train
}  // namespace elda
