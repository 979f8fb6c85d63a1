// Bitwise-identity tests for the GEMM kernels.
//
// MatMul's contract (tensor_ops.h) is that every kernel — the simple
// small-product loops, the packed cache-blocked microkernel and the long-K
// kernel for narrow A^T B products — produces
// output bit-for-bit equal to GemmReference for every shape, transpose
// combination, and thread count. These tests enforce that with memcmp, not
// tolerances: any reassociation, accumulator splitting, or zero-skipping
// shortcut in a kernel shows up as a hard failure here.

#include <cstring>
#include <vector>

#include "gtest/gtest.h"
#include "par/par.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace {

// Mixed-sign values with ~25% exact zeros. Zeros exercise any
// skip-zero shortcut a kernel might take (the accumulator must still pass
// through fma(0, b, acc)); sign mixing exercises cancellation, where a
// reordered sum diverges fastest.
Tensor PatternTensor(std::vector<int64_t> shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Empty(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = rng.Uniform(0.0, 1.0) < 0.25
               ? 0.0f
               : static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return t;
}

void ExpectBitwiseMatch(int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                        uint64_t seed) {
  Tensor a = PatternTensor(
      ta ? std::vector<int64_t>{k, m} : std::vector<int64_t>{m, k}, seed);
  Tensor b = PatternTensor(
      tb ? std::vector<int64_t>{n, k} : std::vector<int64_t>{k, n}, seed + 1);
  std::vector<float> ref(static_cast<size_t>(m * n));
  GemmReference(a.data(), b.data(), ref.data(), m, k, n, ta, tb);
  for (int64_t threads : {1, 2, 8}) {
    par::ScopedNumThreads scoped(threads);
    Tensor c = MatMul(a, b, ta, tb);
    ASSERT_EQ(c.shape(0), m);
    ASSERT_EQ(c.shape(1), n);
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0)
        << "m=" << m << " k=" << k << " n=" << n << " trans_a=" << ta
        << " trans_b=" << tb << " threads=" << threads;
  }
}

TEST(GemmBitwiseTest, SweepSmallOddPrimeShapesAllTransposes) {
  // Crosses simple-vs-packed thresholds, microtile edges (odd/prime dims),
  // and degenerate rows/columns, for all four transpose combinations.
  const int64_t dims[] = {1, 2, 3, 5, 8, 17, 37, 64};
  uint64_t seed = 1;
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        for (int ta = 0; ta < 2; ++ta) {
          for (int tb = 0; tb < 2; ++tb) {
            ExpectBitwiseMatch(m, k, n, ta != 0, tb != 0, seed++);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(GemmBitwiseTest, PackedKernelShapes) {
  // Shapes that definitely take the packed cache-blocked path, including
  // dims that are not multiples of the register tile.
  ExpectBitwiseMatch(256, 256, 256, false, false, 1001);
  ExpectBitwiseMatch(256, 256, 256, false, true, 1002);
  ExpectBitwiseMatch(65, 127, 63, true, false, 1003);
  ExpectBitwiseMatch(65, 127, 63, true, true, 1004);
  ExpectBitwiseMatch(64, 101, 192, false, false, 1005);  // GRU gate shape
  ExpectBitwiseMatch(37, 24, 37, false, true, 1006);  // feature interaction
}

TEST(GemmBitwiseTest, LongKTransposedProducts) {
  // A^T B with a long contraction and at most 48 x 8 outputs: the
  // weight-gradient shape served by the long-K kernel, across its row-block
  // edges (16), every output width it specialises (1..8), one width past it
  // and contractions on both sides of its K threshold.
  uint64_t seed = 4001;
  for (int64_t m : {1, 7, 16, 33, 48}) {
    for (int64_t n : {1, 4, 5, 8, 9}) {
      for (int64_t k : {1023, 1024, 5003}) {
        ExpectBitwiseMatch(m, k, n, /*ta=*/true, /*tb=*/false, seed++);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  ExpectBitwiseMatch(48, 120000, 8, /*ta=*/true, /*tb=*/false, 4997);
  ExpectBitwiseMatch(33, 120000, 5, /*ta=*/true, /*tb=*/false, 4998);
  // The feature-interaction projection gradient dp = r^T g at B=64, T=48,
  // C=37, E=24, d=4.
  ExpectBitwiseMatch(48, 113664, 4, /*ta=*/true, /*tb=*/false, 4999);
}

TEST(GemmBitwiseTest, BatchedMatchesPerItemReference) {
  const int64_t B = 6, m = 37, k = 24, n = 37;
  uint64_t seed = 2001;
  for (int ta = 0; ta < 2; ++ta) {
    for (int tb = 0; tb < 2; ++tb) {
      Tensor a = PatternTensor(ta ? std::vector<int64_t>{B, k, m}
                                  : std::vector<int64_t>{B, m, k},
                               seed++);
      Tensor b = PatternTensor(tb ? std::vector<int64_t>{B, n, k}
                                  : std::vector<int64_t>{B, k, n},
                               seed++);
      std::vector<float> ref(static_cast<size_t>(B * m * n));
      for (int64_t i = 0; i < B; ++i) {
        GemmReference(a.data() + i * m * k, b.data() + i * k * n,
                      ref.data() + i * m * n, m, k, n, ta != 0, tb != 0);
      }
      for (int64_t threads : {1, 2, 8}) {
        par::ScopedNumThreads scoped(threads);
        Tensor c = MatMul(a, b, ta != 0, tb != 0);
        ASSERT_EQ(
            std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0)
            << "trans_a=" << ta << " trans_b=" << tb
            << " threads=" << threads;
      }
    }
  }
}

TEST(GemmBitwiseTest, SharedRhsBatchMatchesReference) {
  // 3-D x 2-D: the right-hand side is shared across the batch; the packed
  // kernel packs it once per chunk and must still match item-by-item.
  const int64_t B = 64, m = 8, k = 101, n = 192;
  Tensor a = PatternTensor({B, m, k}, 3001);
  Tensor b = PatternTensor({k, n}, 3002);
  std::vector<float> ref(static_cast<size_t>(B * m * n));
  for (int64_t i = 0; i < B; ++i) {
    GemmReference(a.data() + i * m * k, b.data(), ref.data() + i * m * n, m,
                  k, n, false, false);
  }
  for (int64_t threads : {1, 2, 8}) {
    par::ScopedNumThreads scoped(threads);
    Tensor c = MatMul(a, b);
    ASSERT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

TEST(GemmBitwiseTest, ZeroSizedDims) {
  // k == 0 contracts over nothing: the output must be exact zeros.
  Tensor a = Tensor::Empty({4, 0});
  Tensor b = Tensor::Empty({0, 5});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.size(), 20);
  for (int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0f);
  // m == 0 / n == 0 produce empty outputs without touching memory.
  EXPECT_EQ(MatMul(Tensor::Empty({0, 3}), Tensor::Empty({3, 5})).size(), 0);
  EXPECT_EQ(MatMul(Tensor::Empty({4, 3}), Tensor::Empty({3, 0})).size(), 0);
}

}  // namespace
}  // namespace elda
