#include "train/checkpoint.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "health/ckpt_io.h"
#include "health/health.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "train/trainer.h"

namespace elda {
namespace train {
namespace {

class TinyGruModel : public SequenceModel {
 public:
  TinyGruModel(int64_t features, int64_t hidden, uint64_t seed)
      : rng_(seed), gru_(features, hidden, &rng_), head_(hidden, 1, true,
                                                         &rng_) {
    RegisterSubmodule("gru", &gru_);
    RegisterSubmodule("head", &head_);
  }

  ag::Variable EncodeTerminal(const data::Batch& batch,
                              nn::ForwardContext*) const override {
    const int64_t b = batch.x.shape(0);
    const int64_t t = batch.x.shape(1);
    ag::Variable h = gru_.Forward(ag::Constant(batch.x));
    return ag::Reshape(ag::Slice(h, 1, t - 1, 1),
                       {b, gru_.cell().hidden_size()});
  }

  ag::Variable Readout(const ag::Variable& rep,
                       nn::ForwardContext*) const override {
    return ag::Reshape(head_.Forward(rep), {rep.value().shape(0)});
  }

  int64_t encoding_dim() const override { return gru_.cell().hidden_size(); }
  std::string name() const override { return "TinyGRU"; }

 private:
  Rng rng_;
  nn::Gru gru_;
  nn::Linear head_;
};

std::vector<data::PreparedSample> SeparableData(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::PreparedSample> prepared;
  for (int64_t i = 0; i < n; ++i) {
    data::PreparedSample p;
    p.x = Tensor::Normal({6, 3}, 0.0f, 1.0f, &rng);
    const float shift = rng.Bernoulli(0.5) ? 1.2f : -1.2f;
    for (int64_t t = 0; t < 6; ++t) p.x.at({t, 0}) += shift;
    p.mask = Tensor::Ones({6, 3});
    p.delta = Tensor::Zeros({6, 3});
    p.mortality_label = shift > 0.0f ? 1.0f : 0.0f;
    p.los_gt7_label = p.mortality_label;
    prepared.push_back(std::move(p));
  }
  return prepared;
}

data::SplitIndices EvenSplit(int64_t n) {
  data::SplitIndices split;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 10 == 8) {
      split.val.push_back(i);
    } else if (i % 10 == 9) {
      split.test.push_back(i);
    } else {
      split.train.push_back(i);
    }
  }
  return split;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.max_epochs = 6;
  config.batch_size = 32;
  config.learning_rate = 0.01f;
  return config;
}

// The three training entry points the health and checkpoint policies must
// behave identically under.
enum class EntryPoint { kTrain, kMultiTask, kStreamed };

std::string EntryPointName(
    const testing::TestParamInfo<EntryPoint>& info) {
  switch (info.param) {
    case EntryPoint::kTrain:
      return "Train";
    case EntryPoint::kMultiTask:
      return "TrainMultiTask";
    case EntryPoint::kStreamed:
      return "TrainStreamed";
  }
  return "Unknown";
}

// The fields of a training result that the fault-tolerance tests inspect,
// common to TrainResult and MultiTaskTrainResult.
struct RunOutcome {
  health::TrainStatus status = health::TrainStatus::kOk;
  std::string status_message;
  int64_t epochs_run = 0;
  int64_t best_epoch = 0;
  int64_t recoveries = 0;
  int64_t skipped_batches = 0;
  int64_t checkpoint_write_failures = 0;
  EvalResult val;
  EvalResult test;
};

template <typename Result>
RunOutcome OutcomeOf(const Result& r) {
  RunOutcome out;
  out.status = r.status;
  out.status_message = r.status_message;
  out.epochs_run = r.epochs_run;
  out.best_epoch = r.best_epoch;
  out.recoveries = r.recoveries;
  out.skipped_batches = r.skipped_batches;
  out.checkpoint_write_failures = r.checkpoint_write_failures;
  return out;
}

// One training "process" for an entry point:
//  - Train: the classic in-RAM loop.
//  - TrainMultiTask: one weight-1 BinaryTerminalHead over the model.
//  - TrainStreamed: Batcher sources over the same split. A Batcher does not
//    export the rng that drives its shuffles (Train shares the trainer's
//    checkpointed rng instead), so the sources live as long as the runner;
//    reusing a runner across a kill and a resume re-attaches live sources.
class Runner {
 public:
  Runner(EntryPoint entry, const std::vector<data::PreparedSample>* prepared,
         data::SplitIndices split)
      : entry_(entry), prepared_(prepared), split_(std::move(split)) {}

  RunOutcome Run(const TrainerConfig& config, TinyGruModel* model) {
    const Trainer trainer(config);
    switch (entry_) {
      case EntryPoint::kTrain:
        return Finish(trainer.Train(model, *prepared_, split_,
                                    data::Task::kMortality));
      case EntryPoint::kMultiTask: {
        MultiHead heads;
        heads.Add(std::make_unique<BinaryTerminalHead>(), 1.0f);
        const MultiTaskTrainResult r = trainer.TrainMultiTask(
            model, &heads, *prepared_, split_, data::Task::kMortality);
        RunOutcome out = OutcomeOf(r);
        if (!r.val.per_task.empty()) out.val = r.val.per_task[0];
        if (!r.test.per_task.empty()) out.test = r.test.per_task[0];
        return out;
      }
      case EntryPoint::kStreamed:
        if (!train_) {
          train_ = std::make_unique<data::Batcher>(
              prepared_, split_.train, config.batch_size,
              data::Task::kMortality, &train_rng_);
          val_ = std::make_unique<data::Batcher>(
              prepared_, split_.val, 64, data::Task::kMortality, &eval_rng_);
          test_ = std::make_unique<data::Batcher>(
              prepared_, split_.test, 64, data::Task::kMortality, &eval_rng_);
        }
        return Finish(trainer.TrainStreamed(model, train_.get(), val_.get(),
                                            test_.get()));
    }
    return {};
  }

 private:
  static RunOutcome Finish(const TrainResult& r) {
    RunOutcome out = OutcomeOf(r);
    out.val = r.val;
    out.test = r.test;
    return out;
  }

  EntryPoint entry_;
  const std::vector<data::PreparedSample>* prepared_;
  data::SplitIndices split_;
  Rng train_rng_{21};
  Rng eval_rng_{22};
  std::unique_ptr<data::Batcher> train_, val_, test_;
};

// Keeps the global fault injector pristine around each test. The TEST_P
// cases run once per training entry point; the TEST_F cases pin behaviour
// specific to Train's checkpoint handling.
class FaultToleranceTest : public ::testing::TestWithParam<EntryPoint> {
 protected:
  void SetUp() override { health::GlobalFaultInjector()->Disarm(); }
  void TearDown() override { health::GlobalFaultInjector()->Disarm(); }

  // Checkpoint paths carry the entry point so parameterized runs of one
  // test never share a file.
  std::string CkptPath(const std::string& name) const {
    return TempPath(name + "_" +
                    std::to_string(static_cast<int>(GetParam())) + ".ckpt");
  }
};

TEST(TrainCheckpointTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.ckpt");
  Rng rng(17);
  TrainCheckpoint ckpt;
  ckpt.next_epoch = 4;
  ckpt.epochs_run = 4;
  ckpt.best_epoch = 2;
  ckpt.epochs_without_improvement = 1;
  ckpt.total_batches = 57;
  ckpt.recoveries = 1;
  ckpt.skipped_batches = 2;
  ckpt.best_val_auc_pr = 0.875;
  ckpt.best_val.bce = 0.31;
  ckpt.best_val.auc_roc = 0.9;
  ckpt.best_val.auc_pr = 0.875;
  ckpt.total_batch_seconds = 1.5;
  ckpt.params_blob = "opaque parameter bytes";
  ckpt.adam.step_count = 57;
  ckpt.adam.lr = 0.005f;
  ckpt.adam.m.push_back(Tensor::Normal({3, 4}, 0.0f, 1.0f, &rng));
  ckpt.adam.v.push_back(Tensor::Normal({3, 4}, 0.0f, 1.0f, &rng));
  ckpt.rng = rng.SaveState();
  ckpt.best_params.push_back(Tensor::Normal({2, 2}, 0.0f, 1.0f, &rng));

  std::string error;
  ASSERT_TRUE(SaveTrainCheckpoint(path, ckpt, &error)) << error;
  TrainCheckpoint loaded;
  ASSERT_TRUE(LoadTrainCheckpoint(path, &loaded, &error)) << error;

  EXPECT_EQ(loaded.next_epoch, 4);
  EXPECT_EQ(loaded.epochs_run, 4);
  EXPECT_EQ(loaded.best_epoch, 2);
  EXPECT_EQ(loaded.epochs_without_improvement, 1);
  EXPECT_EQ(loaded.total_batches, 57);
  EXPECT_EQ(loaded.recoveries, 1);
  EXPECT_EQ(loaded.skipped_batches, 2);
  EXPECT_DOUBLE_EQ(loaded.best_val_auc_pr, 0.875);
  EXPECT_DOUBLE_EQ(loaded.best_val.bce, 0.31);
  EXPECT_DOUBLE_EQ(loaded.total_batch_seconds, 1.5);
  EXPECT_EQ(loaded.params_blob, "opaque parameter bytes");
  EXPECT_EQ(loaded.adam.step_count, 57);
  EXPECT_FLOAT_EQ(loaded.adam.lr, 0.005f);
  ASSERT_EQ(loaded.adam.m.size(), 1u);
  for (int64_t i = 0; i < loaded.adam.m[0].size(); ++i) {
    EXPECT_EQ(loaded.adam.m[0][i], ckpt.adam.m[0][i]);
    EXPECT_EQ(loaded.adam.v[0][i], ckpt.adam.v[0][i]);
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(loaded.rng.s[i], ckpt.rng.s[i]);
  ASSERT_EQ(loaded.best_params.size(), 1u);
  for (int64_t i = 0; i < loaded.best_params[0].size(); ++i) {
    EXPECT_EQ(loaded.best_params[0][i], ckpt.best_params[0][i]);
  }
}

TEST(TrainCheckpointTest, LoadRejectsMissingFile) {
  TrainCheckpoint ckpt;
  std::string error;
  EXPECT_FALSE(
      LoadTrainCheckpoint(TempPath("does_not_exist.ckpt"), &ckpt, &error));
  EXPECT_FALSE(error.empty());
}

TEST_P(FaultToleranceTest, KillAndResumeIsBitwiseIdentical) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);

  // Uninterrupted reference run.
  TrainerConfig config_a = BaseConfig();
  config_a.checkpoint_path = CkptPath("resume_a");
  config_a.checkpoint_every = 1;
  TinyGruModel model_a(3, 8, 2);
  RunOutcome result_a =
      Runner(GetParam(), &prepared, split).Run(config_a, &model_a);
  ASSERT_EQ(result_a.status, health::TrainStatus::kOk);
  const std::string params_a = nn::EncodeParameters(model_a);

  // The same run "killed" after 3 of 6 epochs...
  TrainerConfig config_b = BaseConfig();
  config_b.checkpoint_path = CkptPath("resume_b");
  config_b.checkpoint_every = 1;
  config_b.max_epochs = 3;
  Runner runner_b(GetParam(), &prepared, split);
  TinyGruModel model_b(3, 8, 2);  // same init seed as model_a
  RunOutcome partial = runner_b.Run(config_b, &model_b);
  ASSERT_EQ(partial.epochs_run, 3);

  // ...and resumed into a freshly (differently) initialized model.
  config_b.max_epochs = 6;
  config_b.resume = true;
  TinyGruModel model_c(3, 8, 99);
  RunOutcome result_b = runner_b.Run(config_b, &model_c);

  EXPECT_EQ(nn::EncodeParameters(model_c), params_a);
  EXPECT_DOUBLE_EQ(result_b.val.auc_pr, result_a.val.auc_pr);
  EXPECT_DOUBLE_EQ(result_b.val.auc_roc, result_a.val.auc_roc);
  EXPECT_DOUBLE_EQ(result_b.val.bce, result_a.val.bce);
  EXPECT_DOUBLE_EQ(result_b.test.auc_pr, result_a.test.auc_pr);
  EXPECT_DOUBLE_EQ(result_b.test.auc_roc, result_a.test.auc_roc);
  EXPECT_DOUBLE_EQ(result_b.test.bce, result_a.test.bce);
  EXPECT_EQ(result_b.best_epoch, result_a.best_epoch);
  EXPECT_EQ(result_b.epochs_run, result_a.epochs_run);
  EXPECT_EQ(result_b.status, health::TrainStatus::kOk);
}

TEST_F(FaultToleranceTest, ResumeRejectsCheckpointFromDifferentSplit) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  TrainerConfig config = BaseConfig();
  config.max_epochs = 1;
  config.checkpoint_path = TempPath("wrong_split.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  ASSERT_EQ(Trainer(config)
                .Train(&model, prepared, split, data::Task::kMortality)
                .status,
            health::TrainStatus::kOk);

  // Same file, different train indices.
  data::SplitIndices other = split;
  other.train.pop_back();
  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult result = Trainer(config).Train(&model2, prepared, other,
                                             data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kCheckpointError);
  EXPECT_NE(result.status_message.find("different train split"),
            std::string::npos);
}

// Checkpoints written before every entry point exported its training
// source's cursor hold Train's batch order in a "batcher" section (uint64
// count, int64 order[count]) and have no "source" section. They still resume
// bitwise.
TEST_F(FaultToleranceTest, LegacyBatcherSectionCheckpointResumesBitwise) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);

  TrainerConfig config = BaseConfig();
  TinyGruModel model_a(3, 8, 2);
  TrainResult result_a = Trainer(config).Train(&model_a, prepared, split,
                                               data::Task::kMortality);
  ASSERT_EQ(result_a.status, health::TrainStatus::kOk);

  config.checkpoint_path = TempPath("legacy_layout.ckpt");
  config.checkpoint_every = 1;
  config.max_epochs = 3;
  TinyGruModel model_b(3, 8, 2);
  ASSERT_EQ(Trainer(config)
                .Train(&model_b, prepared, split, data::Task::kMortality)
                .epochs_run,
            3);

  // Rewrite the file into the older layout. The Batcher state is
  // uint32 magic | uint64 count | int64 order[count] | int64 cursor.
  std::vector<health::Section> sections;
  std::string error;
  ASSERT_TRUE(
      health::ReadSectionedFile(config.checkpoint_path, &sections, &error))
      << error;
  const health::Section* source = health::FindSection(sections, "source");
  ASSERT_NE(source, nullptr);
  uint64_t count = 0;
  ASSERT_GE(source->payload.size(), 12u);
  std::memcpy(&count, source->payload.data() + 4, sizeof(count));
  ASSERT_EQ(source->payload.size(), 12 + 8 * count + 8);
  std::string batcher(reinterpret_cast<const char*>(&count), sizeof(count));
  batcher.append(source->payload, 12, 8 * count);
  std::vector<health::Section> legacy;
  for (const char* name : {"progress", "model", "adam", "rng"}) {
    const health::Section* section = health::FindSection(sections, name);
    ASSERT_NE(section, nullptr) << name;
    legacy.push_back(*section);
  }
  legacy.push_back({"batcher", batcher});
  const health::Section* best = health::FindSection(sections, "best");
  ASSERT_NE(best, nullptr);
  legacy.push_back(*best);
  ASSERT_TRUE(
      health::WriteSectionedFile(config.checkpoint_path, legacy, &error))
      << error;

  config.max_epochs = 6;
  config.resume = true;
  TinyGruModel model_c(3, 8, 99);
  TrainResult result_c = Trainer(config).Train(&model_c, prepared, split,
                                               data::Task::kMortality);
  ASSERT_EQ(result_c.status, health::TrainStatus::kOk)
      << result_c.status_message;
  EXPECT_EQ(nn::EncodeParameters(model_c), nn::EncodeParameters(model_a));
  EXPECT_EQ(result_c.val.auc_pr, result_a.val.auc_pr);
  EXPECT_EQ(result_c.val.auc_roc, result_a.val.auc_roc);
  EXPECT_EQ(result_c.val.bce, result_a.val.bce);
  EXPECT_EQ(result_c.test.auc_pr, result_a.test.auc_pr);
  EXPECT_EQ(result_c.test.auc_roc, result_a.test.auc_roc);
  EXPECT_EQ(result_c.test.bce, result_a.test.bce);
  EXPECT_EQ(result_c.best_epoch, result_a.best_epoch);
  EXPECT_EQ(result_c.epochs_run, result_a.epochs_run);
}

TEST_F(FaultToleranceTest, BitFlippedCheckpointIsRejectedOnResume) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  TrainerConfig config = BaseConfig();
  config.max_epochs = 2;
  config.checkpoint_path = TempPath("flipped.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  ASSERT_EQ(Trainer(config)
                .Train(&model, prepared, split, data::Task::kMortality)
                .status,
            health::TrainStatus::kOk);

  std::string bytes = ReadFile(config.checkpoint_path);
  ASSERT_GT(bytes.size(), 50u);
  bytes[40] ^= 0x01;  // inside the first section's payload
  WriteFile(config.checkpoint_path, bytes);

  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult result = Trainer(config).Train(&model2, prepared, split,
                                             data::Task::kMortality);
  EXPECT_EQ(result.status, health::TrainStatus::kCheckpointError);
  EXPECT_NE(result.status_message.find("checksum mismatch"),
            std::string::npos)
      << result.status_message;
}

TEST_P(FaultToleranceTest, PoisonedGradientTriggersRollbackAndRecovers) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);
  health::FaultPlan plan;
  plan.poison_grad_at_step = 7;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 4;
  TinyGruModel model(3, 8, 2);
  RunOutcome result = Runner(GetParam(), &prepared, split).Run(config, &model);
  EXPECT_EQ(result.status, health::TrainStatus::kRecovered);
  EXPECT_EQ(result.recoveries, 1);
  EXPECT_EQ(result.skipped_batches, 0);
  EXPECT_EQ(result.epochs_run, 4);
  // The run still produced valid, finite metrics.
  EXPECT_TRUE(std::isfinite(result.test.bce));
  EXPECT_GT(result.test.auc_roc, 0.5);
}

TEST_P(FaultToleranceTest, SkipPolicyDropsThePoisonedBatch) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);
  health::FaultPlan plan;
  plan.poison_grad_at_step = 3;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 2;
  config.health.policy = health::RecoveryPolicy::kSkipBatch;
  TinyGruModel model(3, 8, 2);
  RunOutcome result = Runner(GetParam(), &prepared, split).Run(config, &model);
  EXPECT_EQ(result.status, health::TrainStatus::kRecovered);
  EXPECT_EQ(result.skipped_batches, 1);
  EXPECT_EQ(result.recoveries, 0);
  EXPECT_EQ(result.epochs_run, 2);
}

TEST_P(FaultToleranceTest, AbortPolicyReturnsStructuredStatus) {
  auto prepared = SeparableData(200, 1);
  auto split = EvenSplit(200);
  health::FaultPlan plan;
  plan.poison_grad_at_step = 3;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.health.policy = health::RecoveryPolicy::kAbort;
  TinyGruModel model(3, 8, 2);
  RunOutcome result = Runner(GetParam(), &prepared, split).Run(config, &model);
  EXPECT_EQ(result.status, health::TrainStatus::kAborted);
  EXPECT_NE(result.status_message.find("non-finite"), std::string::npos)
      << result.status_message;
  EXPECT_NE(result.status_message.find("step 3"), std::string::npos)
      << result.status_message;
}

TEST_P(FaultToleranceTest, FailedCheckpointWriteDoesNotStopTraining) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  health::FaultPlan plan;
  plan.fail_write_at = 1;  // second checkpoint write fails
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 3;
  config.checkpoint_path = CkptPath("fail_write");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  RunOutcome result = Runner(GetParam(), &prepared, split).Run(config, &model);
  health::GlobalFaultInjector()->Disarm();
  EXPECT_EQ(result.status, health::TrainStatus::kOk);
  EXPECT_EQ(result.checkpoint_write_failures, 1);
  EXPECT_EQ(result.epochs_run, 3);
  // The surviving file is the epoch-3 write, still loadable.
  TrainCheckpoint ckpt;
  std::string error;
  ASSERT_TRUE(LoadTrainCheckpoint(config.checkpoint_path, &ckpt, &error))
      << error;
  EXPECT_EQ(ckpt.next_epoch, 3);
}

TEST_F(FaultToleranceTest, TornCheckpointWriteIsRejectedAtResume) {
  auto prepared = SeparableData(100, 3);
  auto split = EvenSplit(100);
  health::FaultPlan plan;
  plan.truncate_write_at = 0;
  health::GlobalFaultInjector()->Arm(plan);

  TrainerConfig config = BaseConfig();
  config.max_epochs = 1;
  config.checkpoint_path = TempPath("torn.ckpt");
  config.checkpoint_every = 1;
  TinyGruModel model(3, 4, 4);
  TrainResult result = Trainer(config).Train(&model, prepared, split,
                                             data::Task::kMortality);
  health::GlobalFaultInjector()->Disarm();
  EXPECT_EQ(result.checkpoint_write_failures, 1);

  config.resume = true;
  TinyGruModel model2(3, 4, 5);
  TrainResult resumed = Trainer(config).Train(&model2, prepared, split,
                                              data::Task::kMortality);
  EXPECT_EQ(resumed.status, health::TrainStatus::kCheckpointError);
  EXPECT_FALSE(resumed.status_message.empty());
}

INSTANTIATE_TEST_SUITE_P(EntryPoints, FaultToleranceTest,
                         testing::Values(EntryPoint::kTrain,
                                         EntryPoint::kMultiTask,
                                         EntryPoint::kStreamed),
                         EntryPointName);

}  // namespace
}  // namespace train
}  // namespace elda
