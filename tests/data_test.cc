#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/emr.h"
#include "data/pipeline.h"
#include "gtest/gtest.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace data {
namespace {

// Builds a tiny two-feature dataset with a deterministic pattern.
EmrDataset TinyDataset() {
  EmrDataset dataset({"A", "B"}, /*num_steps=*/4);
  // Sample 0: feature A observed at t=0 (10) and t=2 (20); B observed at
  // t=1 (5). Mortality positive.
  EmrSample s0(4, 2);
  s0.value(0, 0) = 10.0f;
  s0.set_observed(0, 0, true);
  s0.value(2, 0) = 20.0f;
  s0.set_observed(2, 0, true);
  s0.value(1, 1) = 5.0f;
  s0.set_observed(1, 1, true);
  s0.mortality_label = 1.0f;
  s0.los_gt7_label = 0.0f;
  dataset.Add(s0);
  // Sample 1: A observed at t=1 (30); B never observed. Negative labels.
  EmrSample s1(4, 2);
  s1.value(1, 0) = 30.0f;
  s1.set_observed(1, 0, true);
  s1.los_gt7_label = 1.0f;
  dataset.Add(s1);
  return dataset;
}

TEST(EmrSampleTest, RecordCounting) {
  EmrDataset d = TinyDataset();
  EXPECT_EQ(d.sample(0).NumRecords(), 3);
  EXPECT_EQ(d.sample(1).NumRecords(), 1);
}

TEST(EmrSampleTest, TruncateToHourClearsLaterObservations) {
  EmrDataset d = TinyDataset();
  EmrSample truncated = TruncateToHour(d.sample(0), 2);
  // Observations before hour 2 survive; at/after hour 2 are cleared.
  EXPECT_TRUE(truncated.is_observed(0, 0));
  EXPECT_TRUE(truncated.is_observed(1, 1));
  EXPECT_FALSE(truncated.is_observed(2, 0));
  EXPECT_EQ(truncated.NumRecords(), 2);
  // Labels and dimensions preserved.
  EXPECT_EQ(truncated.mortality_label, d.sample(0).mortality_label);
  EXPECT_EQ(truncated.num_steps, 4);
}

TEST(EmrSampleTest, TruncateToFullLengthIsIdentity) {
  EmrDataset d = TinyDataset();
  EmrSample same = TruncateToHour(d.sample(0), 4);
  EXPECT_EQ(same.values, d.sample(0).values);
  EXPECT_EQ(same.observed, d.sample(0).observed);
}

TEST(EmrSampleTest, TruncateToZeroClearsEverything) {
  EmrDataset d = TinyDataset();
  EXPECT_EQ(TruncateToHour(d.sample(0), 0).NumRecords(), 0);
}

TEST(EmrDatasetTest, TableOneStatistics) {
  EmrDataset d = TinyDataset();
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.CountMortality(), 1);
  EXPECT_EQ(d.CountLosGt7(), 1);
  EXPECT_DOUBLE_EQ(d.AvgRecordsPerPatient(), 2.0);
  EXPECT_DOUBLE_EQ(d.MissingRate(), 1.0 - 4.0 / 16.0);
}

TEST(SplitTest, PartitionsWithoutOverlap) {
  Rng rng(1);
  SplitIndices split = SplitDataset(100, 0.8, 0.1, &rng);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.val.size(), 10u);
  EXPECT_EQ(split.test.size(), 10u);
  std::set<int64_t> all;
  for (int64_t i : split.train) all.insert(i);
  for (int64_t i : split.val) all.insert(i);
  for (int64_t i : split.test) all.insert(i);
  EXPECT_EQ(all.size(), 100u);
}

TEST(SplitTest, StratifiedKeepsClassRatioInEveryPartition) {
  std::vector<float> labels(200, 0.0f);
  for (int i = 0; i < 20; ++i) labels[i * 10] = 1.0f;  // 10% positives
  Rng rng(5);
  SplitIndices split = StratifiedSplit(labels, 0.8, 0.1, &rng);
  auto count_pos = [&](const std::vector<int64_t>& idx) {
    int64_t p = 0;
    for (int64_t i : idx) p += labels[i] == 1.0f;
    return p;
  };
  EXPECT_EQ(count_pos(split.train), 16);
  EXPECT_EQ(count_pos(split.val), 2);
  EXPECT_EQ(count_pos(split.test), 2);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 200u);
}

TEST(SplitTest, StratifiedPartitionsAreDisjoint) {
  std::vector<float> labels(50, 0.0f);
  labels[3] = labels[7] = labels[11] = labels[20] = labels[33] = 1.0f;
  Rng rng(6);
  SplitIndices split = StratifiedSplit(labels, 0.6, 0.2, &rng);
  std::set<int64_t> all;
  for (int64_t i : split.train) all.insert(i);
  for (int64_t i : split.val) all.insert(i);
  for (int64_t i : split.test) all.insert(i);
  EXPECT_EQ(all.size(), 50u);
}

TEST(SplitTest, DeterministicForFixedSeed) {
  Rng rng1(7), rng2(7);
  SplitIndices a = SplitDataset(50, 0.8, 0.1, &rng1);
  SplitIndices b = SplitDataset(50, 0.8, 0.1, &rng2);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

TEST(StandardizerTest, FitsOnObservedTrainCellsOnly) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});  // train = sample 0 only
  // Feature A observed values in train: 10, 20 -> mean 15, std 5.
  EXPECT_FLOAT_EQ(standardizer.mean(0), 15.0f);
  EXPECT_FLOAT_EQ(standardizer.stddev(0), 5.0f);
  // Feature B: single value 5 -> mean 5, std ~0 (clamped positive).
  EXPECT_FLOAT_EQ(standardizer.mean(1), 5.0f);
  EXPECT_GT(standardizer.stddev(1), 0.0f);
}

TEST(StandardizerTest, ApplyStandardisesObservedAndZeroesUnobserved) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  EmrSample s = d.sample(0);
  standardizer.Apply(&s);
  EXPECT_FLOAT_EQ(s.value(0, 0), -1.0f);  // (10-15)/5
  EXPECT_FLOAT_EQ(s.value(2, 0), 1.0f);   // (20-15)/5
  EXPECT_FLOAT_EQ(s.value(1, 0), 0.0f);   // unobserved
}

TEST(StandardizerTest, CleansNegativeObservations) {
  EmrDataset dataset({"A"}, 2);
  EmrSample s(2, 1);
  s.value(0, 0) = 10.0f;
  s.set_observed(0, 0, true);
  s.value(1, 0) = -5.0f;  // recording error
  s.set_observed(1, 0, true);
  dataset.Add(s);
  Standardizer standardizer;
  standardizer.Fit(dataset, {0});
  EXPECT_FLOAT_EQ(standardizer.mean(0), 10.0f);  // -5 excluded
  EmrSample applied = dataset.sample(0);
  standardizer.Apply(&applied);
  EXPECT_FALSE(applied.is_observed(1, 0));  // dropped from the mask
}

TEST(StandardizerTest, NeverObservedFeatureKeepsIdentityStats) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {1});  // train = sample 1 (feature B never observed)
  EXPECT_FLOAT_EQ(standardizer.mean(1), 0.0f);
  EXPECT_FLOAT_EQ(standardizer.stddev(1), 1.0f);
}

TEST(PrepareTest, ImputationGlobalMeanThenLocf) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  auto prepared = PrepareDataset(d, standardizer);
  ASSERT_EQ(prepared.size(), 2u);
  const PreparedSample& p = prepared[0];
  // Feature A (index 0): observed at t=0 (-1) and t=2 (+1).
  EXPECT_FLOAT_EQ((p.x.at({0, 0})), -1.0f);
  EXPECT_FLOAT_EQ((p.x.at({1, 0})), -1.0f);  // LOCF from t=0
  EXPECT_FLOAT_EQ((p.x.at({2, 0})), 1.0f);
  EXPECT_FLOAT_EQ((p.x.at({3, 0})), 1.0f);  // LOCF from t=2
  // Feature B: unobserved until t=1 -> global mean (0) before, LOCF after.
  EXPECT_FLOAT_EQ((p.x.at({0, 1})), 0.0f);
  const float b_std = (5.0f - standardizer.mean(1)) / standardizer.stddev(1);
  EXPECT_FLOAT_EQ((p.x.at({1, 1})), b_std);
  EXPECT_FLOAT_EQ((p.x.at({2, 1})), b_std);
}

TEST(PrepareTest, MaskAndDeltaGrids) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  auto prepared = PrepareDataset(d, standardizer);
  const PreparedSample& p = prepared[0];
  EXPECT_FLOAT_EQ((p.mask.at({0, 0})), 1.0f);
  EXPECT_FLOAT_EQ((p.mask.at({1, 0})), 0.0f);
  // Delta for feature A: 0 (obs), 1, 0 (obs), 1.
  EXPECT_FLOAT_EQ((p.delta.at({0, 0})), 0.0f);
  EXPECT_FLOAT_EQ((p.delta.at({1, 0})), 1.0f);
  EXPECT_FLOAT_EQ((p.delta.at({2, 0})), 0.0f);
  EXPECT_FLOAT_EQ((p.delta.at({3, 0})), 1.0f);
  // Feature B in sample 1 is never observed: delta keeps growing.
  const PreparedSample& q = prepared[1];
  EXPECT_FLOAT_EQ((q.delta.at({3, 1})), 3.0f);
}

TEST(PrepareTest, LabelsAndProvenanceCarriedThrough) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  auto prepared = PrepareDataset(d, standardizer);
  EXPECT_FLOAT_EQ(prepared[0].mortality_label, 1.0f);
  EXPECT_FLOAT_EQ(prepared[1].los_gt7_label, 1.0f);
  EXPECT_EQ(prepared[0].source_index, 0);
  EXPECT_EQ(prepared[1].source_index, 1);
}

TEST(BatchTest, MakeBatchShapesAndTaskSelection) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  auto prepared = PrepareDataset(d, standardizer);
  Batch batch = MakeBatch(prepared, {0, 1}, Task::kMortality);
  EXPECT_EQ(batch.x.shape(), (std::vector<int64_t>{2, 4, 2}));
  EXPECT_EQ(batch.mask.shape(), (std::vector<int64_t>{2, 4, 2}));
  EXPECT_EQ(batch.y.shape(), (std::vector<int64_t>{2}));
  EXPECT_FLOAT_EQ(batch.y[0], 1.0f);
  EXPECT_FLOAT_EQ(batch.y[1], 0.0f);
  Batch los = MakeBatch(prepared, {0, 1}, Task::kLosGt7);
  EXPECT_FLOAT_EQ(los.y[0], 0.0f);
  EXPECT_FLOAT_EQ(los.y[1], 1.0f);
}

TEST(BatchTest, BatchRowsMatchPreparedSamples) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  auto prepared = PrepareDataset(d, standardizer);
  Batch batch = MakeBatch(prepared, {1, 0}, Task::kMortality);
  // Row 0 of the batch is prepared sample 1.
  Tensor row0 = Slice(batch.x, 0, 0, 1).Reshape({4, 2});
  EXPECT_TRUE(AllClose(row0, prepared[1].x));
}

// Ragged prepared samples of the given lengths, with multi-task labels.
std::vector<PreparedSample> RaggedPrepared(const std::vector<int64_t>& lengths) {
  Rng rng(17);
  std::vector<PreparedSample> prepared;
  for (int64_t len : lengths) {
    PreparedSample p;
    p.x = Tensor::Normal({len, 3}, 0.0f, 1.0f, &rng);
    p.mask = Tensor::Ones({len, 3});
    p.delta = Tensor::Normal({len, 3}, 0.0f, 1.0f, &rng);
    p.length = len;
    p.mortality_label = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    p.los_gt7_label = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
    p.decomp_labels.assign(static_cast<size_t>(len), 1.0f);
    p.phenotype_labels.assign(kNumPhenotypes, 0.5f);
    prepared.push_back(std::move(p));
  }
  return prepared;
}

void ExpectSameBits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(a.data() + i, b.data() + i, sizeof(float)), 0)
        << "i=" << i;
  }
}

TEST(BatchTest, SliceRowsEqualsMakeBatchPaddedToTheBatchSteps) {
  const auto prepared = RaggedPrepared({3, 7, 5, 7, 2});
  const Batch whole =
      MakeBatch(prepared, {0, 1, 2, 3, 4}, Task::kMortality);
  ASSERT_EQ(whole.x.shape(1), 7);
  ASSERT_GT(whole.step_mask.size(), 0);
  // Rows {1, 3} are full-length: that slice is uniform, so it carries no
  // step mask, exactly as MakeBatch builds it.
  for (const auto& range : std::vector<std::pair<int64_t, int64_t>>{
           {0, 2}, {1, 2}, {3, 4}, {2, 5}, {0, 5}}) {
    SCOPED_TRACE(std::to_string(range.first) + ".." +
                 std::to_string(range.second));
    std::vector<int64_t> rows;
    for (int64_t r = range.first; r < range.second; ++r) rows.push_back(r);
    const Batch slice = SliceRows(whole, range.first, range.second);
    const Batch built = MakeBatch(prepared, rows, Task::kMortality,
                                  /*steps=*/whole.x.shape(1));
    ExpectSameBits(slice.x, built.x);
    ExpectSameBits(slice.mask, built.mask);
    ExpectSameBits(slice.delta, built.delta);
    ExpectSameBits(slice.y, built.y);
    ExpectSameBits(slice.y_los, built.y_los);
    ExpectSameBits(slice.y_decomp, built.y_decomp);
    ExpectSameBits(slice.y_pheno, built.y_pheno);
    ExpectSameBits(slice.step_mask, built.step_mask);
    EXPECT_EQ(slice.lengths, built.lengths);
    EXPECT_EQ(slice.sample_indices, built.sample_indices);
    EXPECT_EQ(slice.UniformLength(), built.UniformLength());
  }
}

TEST(BatchTest, MakeBatchRejectsPaddingShorterThanTheLongestGrid) {
  const auto prepared = RaggedPrepared({3, 7});
  EXPECT_DEATH(MakeBatch(prepared, {0, 1}, Task::kMortality, /*steps=*/5),
               "cannot pad");
}

TEST(BatcherTest, CoversEveryIndexOncePerEpoch) {
  EmrDataset d = TinyDataset();
  Standardizer standardizer;
  standardizer.Fit(d, {0});
  auto prepared = PrepareDataset(d, standardizer);
  // Duplicate indices to get a bigger epoch.
  std::vector<int64_t> indices = {0, 1, 0, 1, 0};
  Rng rng(3);
  Batcher batcher(&prepared, indices, /*batch_size=*/2, Task::kMortality,
                  &rng);
  EXPECT_EQ(batcher.NumBatchesPerEpoch(), 3);
  batcher.StartEpoch();
  Batch batch;
  int64_t total = 0;
  int64_t batches = 0;
  while (batcher.Next(&batch)) {
    total += batch.y.size();
    ++batches;
  }
  EXPECT_EQ(total, 5);
  EXPECT_EQ(batches, 3);
  // Next epoch restarts.
  batcher.StartEpoch();
  EXPECT_TRUE(batcher.Next(&batch));
}

}  // namespace
}  // namespace data
}  // namespace elda
