// Bitwise parity of ELDA-Net's feature-level block against the composed
// autograd chains it was built from.
//
// BiDirectionalEmbedding (Eq. 2) and FeatureInteraction (Eqs. 3-6) each run
// as one fused autograd node. Their contract is that every value and every
// gradient equals, bit for bit, what the op-by-op chains below compute —
// the chains are verbatim copies of the modules' former Forward bodies and
// serve as the executable specification. Comparisons use memcmp, never a
// tolerance, across embedding variants, shapes, thread counts and the
// scalar/AVX2 dispatch.

#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/embedding.h"
#include "core/feature_interaction.h"
#include "gtest/gtest.h"
#include "nn/forward_context.h"
#include "par/par.h"
#include "tensor/simd_math.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {
namespace {

// ---- Composed reference chains ----------------------------------------------

struct EmbeddingTables {
  ag::Variable v_lower, v_upper, v_linear, v_missing;
};

EmbeddingTables TablesOf(const BiDirectionalEmbedding& m) {
  EmbeddingTables t;
  for (const auto& [name, var] : m.NamedParameters()) {
    if (name == "v_lower") t.v_lower = var;
    if (name == "v_upper") t.v_upper = var;
    if (name == "v_linear") t.v_linear = var;
    if (name == "v_missing") t.v_missing = var;
  }
  return t;
}

// BiDirectionalEmbedding::ForwardWithNever as a composed chain.
ag::Variable ComposedEmbeddingWithNever(const ag::Variable& x,
                                        const Tensor& never,
                                        const EmbeddingTables& tables,
                                        EmbeddingVariant variant, float lower,
                                        float upper,
                                        bool use_missing_embedding) {
  const Tensor& xv = x.value();
  const int64_t batch = xv.shape(0);
  const int64_t steps = xv.shape(1);
  const int64_t num_features = xv.shape(2);

  ag::Variable x4 = ag::Reshape(x, {batch, steps, num_features, 1});

  ag::Variable e;
  const bool bi = variant == EmbeddingVariant::kBiDirectional ||
                  variant == EmbeddingVariant::kBiDirectionalStar;
  if (bi) {
    const float inv_range = 1.0f / (upper - lower);
    ag::Variable wa = ag::MulScalar(ag::AddScalar(x4, -lower), inv_range);
    ag::Variable wb = ag::MulScalar(
        ag::AddScalar(ag::MulScalar(x4, -1.0f), upper), inv_range);
    e = ag::Add(ag::Mul(wa, tables.v_lower), ag::Mul(wb, tables.v_upper));
  } else {
    e = ag::Mul(x4, tables.v_linear);
  }

  if (variant == EmbeddingVariant::kBiDirectionalStar ||
      variant == EmbeddingVariant::kFmLinearStar) {
    Tensor zero_sel =
        EqualScalar(xv, 0.0f, 1e-6f).Reshape({batch, steps, num_features, 1});
    ag::Variable keep = ag::Constant(
        Sub(Tensor::Ones(zero_sel.shape()), zero_sel));
    e = ag::Add(ag::Mul(e, keep), ag::Constant(zero_sel));
  }

  if (use_missing_embedding) {
    ag::Variable never_v = ag::Constant(never);
    ag::Variable keep_v = ag::Constant(
        Sub(Tensor::Ones(never.shape()), never));
    e = ag::Add(ag::Mul(e, keep_v), ag::Mul(never_v, tables.v_missing));
  }
  return e;
}

// BiDirectionalEmbedding::Forward's never-observed scan.
Tensor NeverFromMask(const Tensor& mask) {
  const int64_t batch = mask.shape(0);
  const int64_t steps = mask.shape(1);
  const int64_t num_features = mask.shape(2);
  Tensor never({batch, 1, num_features, 1});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < num_features; ++c) {
      bool seen = false;
      for (int64_t t = 0; t < steps && !seen; ++t) {
        seen = mask.at({b, t, c}) != 0.0f;
      }
      never.at({b, 0, c, 0}) = seen ? 0.0f : 1.0f;
    }
  }
  return never;
}

struct InteractionParams {
  ag::Variable w_alpha, b_alpha, p;
};

InteractionParams ParamsOf(const FeatureInteraction& m) {
  InteractionParams p;
  for (const auto& [name, var] : m.NamedParameters()) {
    if (name == "w_alpha") p.w_alpha = var;
    if (name == "b_alpha") p.b_alpha = var;
    if (name == "p") p.p = var;
  }
  return p;
}

// FeatureInteraction::Forward as a composed chain.
ag::Variable ComposedFeatureInteraction(const ag::Variable& e,
                                        const InteractionParams& params,
                                        int64_t compression,
                                        const nn::ForwardContext* ctx) {
  const Tensor& ev = e.value();
  const int64_t batch = ev.shape(0);
  const int64_t steps = ev.shape(1);
  const int64_t num_features = ev.shape(2);
  const int64_t embed_dim = ev.shape(3);
  Tensor diag_mask({num_features, num_features});
  for (int64_t i = 0; i < num_features; ++i) diag_mask.at({i, i}) = -1e9f;

  ag::Variable e3 = ag::Reshape(e, {batch * steps, num_features, embed_dim});
  ag::Variable u = ag::Mul(e3, params.w_alpha);
  ag::Variable scores = ag::MatMul(u, ag::TransposeLast2(e3));
  scores = ag::Add(scores, ag::Reshape(params.b_alpha, {num_features, 1}));
  scores = ag::Add(scores, ag::Constant(diag_mask));
  ag::Variable alpha = ag::Softmax(scores, /*axis=*/-1);
  if (ctx != nullptr) {
    ctx->Capture("feature_attention",
                 alpha.value().Reshape(
                     {batch, steps, num_features, num_features}));
  }
  ag::Variable weighted = ag::MatMul(alpha, e3);
  ag::Variable context = ag::Mul(e3, weighted);
  ag::Variable combined = ag::Concat({e3, context}, /*axis=*/-1);
  ag::Variable f = ag::MatMul(ag::Relu(combined), params.p);
  return ag::Reshape(f, {batch, steps, num_features * compression});
}

// ---- Helpers ----------------------------------------------------------------

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<size_t>(got.size()) * sizeof(float)),
            0)
      << what << ": fused and composed differ";
}

// Normal values with ~10% exact zeros, ~3% near-zeros inside the star
// variants' 1e-6 tolerance and a tail beyond the anchors.
Tensor PatternValues(std::vector<int64_t> shape, float scale, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Empty(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    const double u = rng.Uniform(0.0, 1.0);
    if (u < 0.10) {
      t[i] = 0.0f;
    } else if (u < 0.13) {
      t[i] = u < 0.115 ? 4e-7f : -0.0f;
    } else {
      t[i] = static_cast<float>(rng.Normal(0.0, scale));
    }
  }
  return t;
}

// Observation mask with features that stay unobserved for a whole row.
Tensor PatternMask(int64_t batch, int64_t steps, int64_t features,
                   uint64_t seed) {
  Rng rng(seed);
  Tensor m({batch, steps, features});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < features; ++c) {
      const bool never = rng.Uniform(0.0, 1.0) < 0.3;
      for (int64_t t = 0; t < steps; ++t) {
        m.at({b, t, c}) = !never && rng.Uniform(0.0, 1.0) < 0.4 ? 1.0f : 0.0f;
      }
    }
  }
  return m;
}

void RandomizeParameters(nn::Module* m, uint64_t seed) {
  Rng rng(seed);
  for (ag::Variable v : m->Parameters()) {
    Tensor* t = v.mutable_value();
    Tensor fresh = PatternValues(t->shape(), 0.6f, rng.Next());
    std::memcpy(t->data(), fresh.data(),
                static_cast<size_t>(t->size()) * sizeof(float));
  }
}

// Everything one taped run produces: the output, the captured attention
// (when any) and the gradients of the parameters and of the input leaf.
struct BlockRun {
  Tensor out;
  Tensor alpha;
  std::vector<Tensor> param_grads;
  Tensor input_grad;
};

BlockRun Finish(const ag::Variable& out, const ag::Variable& input,
           const Tensor& upstream, nn::Module* module,
           const nn::CaptureSink* sink) {
  BlockRun r;
  r.out = out.value();
  if (sink != nullptr && sink->Contains("feature_attention")) {
    r.alpha = sink->Get("feature_attention");
  }
  ag::SumAll(ag::Mul(out, ag::Constant(upstream))).Backward();
  for (const ag::Variable& v : module->Parameters()) {
    r.param_grads.push_back(v.grad().Clone());
  }
  if (input.requires_grad()) r.input_grad = input.grad().Clone();
  module->ZeroGrad();
  return r;
}

void ExpectSameRun(const BlockRun& got, const BlockRun& want,
                   const std::string& what) {
  ExpectSameBits(got.out, want.out, what + " output");
  ASSERT_EQ(got.alpha.defined(), want.alpha.defined()) << what;
  if (want.alpha.defined()) ExpectSameBits(got.alpha, want.alpha, what + " α");
  ASSERT_EQ(got.param_grads.size(), want.param_grads.size()) << what;
  for (size_t i = 0; i < want.param_grads.size(); ++i) {
    ExpectSameBits(got.param_grads[i], want.param_grads[i],
                   what + " param grad " + std::to_string(i));
  }
  ASSERT_EQ(got.input_grad.defined(), want.input_grad.defined()) << what;
  if (want.input_grad.defined()) {
    ExpectSameBits(got.input_grad, want.input_grad, what + " input grad");
  }
}

struct Shape {
  int64_t b, t, c, e;
};

std::vector<Shape> AllShapes() {
  std::vector<Shape> shapes;
  for (int64_t c : {1, 5, 37}) {
    for (int64_t e : {3, 24}) {
      for (int64_t t : {1, 48}) {
        for (int64_t b : {1, 64}) shapes.push_back({b, t, c, e});
      }
    }
  }
  return shapes;
}

std::string Describe(const Shape& s) {
  return "B=" + std::to_string(s.b) + " T=" + std::to_string(s.t) +
         " C=" + std::to_string(s.c) + " E=" + std::to_string(s.e);
}

// Restores SIMD dispatch however a test exits.
struct ScopedForceScalar {
  explicit ScopedForceScalar(bool force) { simd::ForceScalar(force); }
  ~ScopedForceScalar() { simd::ForceScalar(false); }
};

struct EmbeddingConfig {
  EmbeddingVariant variant;
  bool use_missing;
};

std::vector<EmbeddingConfig> AllEmbeddingConfigs() {
  std::vector<EmbeddingConfig> configs;
  for (EmbeddingVariant v :
       {EmbeddingVariant::kBiDirectional, EmbeddingVariant::kBiDirectionalStar,
        EmbeddingVariant::kFmLinear, EmbeddingVariant::kFmLinearStar}) {
    for (bool vm : {false, true}) configs.push_back({v, vm});
  }
  return configs;
}

std::string Describe(const EmbeddingConfig& c) {
  return EmbeddingVariantName(c.variant) + (c.use_missing ? "+Vm" : "");
}

// ---- Embedding --------------------------------------------------------------

// Compares the module against the composed chain on one shape, with a
// differentiable input leaf and a random upstream gradient.
void CheckEmbedding(const EmbeddingConfig& config, const Shape& s,
                    const std::vector<int64_t>& threads, uint64_t seed) {
  Rng rng(seed);
  BiDirectionalEmbedding module(s.c, s.e, config.variant, -3.0f, 3.0f,
                                config.use_missing, &rng);
  RandomizeParameters(&module, seed + 1);
  const Tensor x = PatternValues({s.b, s.t, s.c}, 1.8f, seed + 2);
  const Tensor mask = PatternMask(s.b, s.t, s.c, seed + 3);
  const Tensor upstream = PatternValues({s.b, s.t, s.c, s.e}, 1.0f, seed + 4);
  const std::string what = Describe(config) + " " + Describe(s);

  ag::Variable x_ref(x, /*requires_grad=*/true);
  const BlockRun want = Finish(
      ComposedEmbeddingWithNever(x_ref, NeverFromMask(mask), TablesOf(module),
                                 config.variant, -3.0f, 3.0f,
                                 config.use_missing),
      x_ref, upstream, &module, nullptr);
  for (int64_t n : threads) {
    par::ScopedNumThreads scoped(n);
    ag::Variable x_leaf(x, /*requires_grad=*/true);
    ExpectSameRun(Finish(module.Forward(x_leaf, mask), x_leaf, upstream,
                         &module, nullptr),
                  want, what + " threads=" + std::to_string(n));
    // A constant input (as in EldaNet) leaves only parameter gradients.
    ag::Variable x_const = ag::Constant(x);
    BlockRun got = Finish(module.Forward(x_const, mask), x_const, upstream,
                     &module, nullptr);
    got.input_grad = want.input_grad;
    ExpectSameRun(got, want, what + " const-x threads=" + std::to_string(n));
  }
}

TEST(FeatureBlockTest, EmbeddingMatchesComposedOnEveryVariantAndShape) {
  uint64_t seed = 100;
  for (const EmbeddingConfig& config : AllEmbeddingConfigs()) {
    for (const Shape& s : AllShapes()) {
      CheckEmbedding(config, s, {2}, seed += 10);
      if (HasFailure()) return;
    }
  }
}

TEST(FeatureBlockTest, EmbeddingMatchesComposedAcrossThreadsAndSimd) {
  uint64_t seed = 5000;
  for (bool scalar : {false, true}) {
    ScopedForceScalar force(scalar);
    for (const EmbeddingConfig& config : AllEmbeddingConfigs()) {
      for (const Shape& s : {Shape{3, 5, 5, 3}, Shape{64, 48, 37, 24}}) {
        SCOPED_TRACE(scalar ? "scalar" : "simd");
        CheckEmbedding(config, s, {1, 2, 8}, seed += 10);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(FeatureBlockTest, ForwardWithNeverMatchesComposed) {
  // The streaming path hands in its own never-observed indicator.
  const Shape s{4, 1, 37, 24};
  for (const EmbeddingConfig& config : AllEmbeddingConfigs()) {
    if (!config.use_missing) continue;
    Rng rng(77);
    BiDirectionalEmbedding module(s.c, s.e, config.variant, -3.0f, 3.0f,
                                  true, &rng);
    RandomizeParameters(&module, 78);
    const Tensor x = PatternValues({s.b, s.t, s.c}, 1.5f, 79);
    const Tensor never = NeverFromMask(PatternMask(s.b, 3, s.c, 80));
    const Tensor upstream = PatternValues({s.b, s.t, s.c, s.e}, 1.0f, 81);
    ag::Variable x_ref(x, true);
    const BlockRun want = Finish(
        ComposedEmbeddingWithNever(x_ref, never, TablesOf(module),
                                   config.variant, -3.0f, 3.0f, true),
        x_ref, upstream, &module, nullptr);
    ag::Variable x_leaf(x, true);
    ExpectSameRun(Finish(module.ForwardWithNever(x_leaf, never), x_leaf,
                         upstream, &module, nullptr),
                  want, Describe(config));
  }
}

// ---- Feature interaction ----------------------------------------------------

TEST(FeatureBlockTest, InteractionMatchesComposedOnEveryShapeThreadAndSimd) {
  constexpr int64_t kCompression = 4;
  uint64_t seed = 9000;
  for (const Shape& s : AllShapes()) {
    seed += 10;
    Rng rng(seed);
    FeatureInteraction module(s.c, s.e, kCompression, &rng);
    RandomizeParameters(&module, seed + 1);
    const Tensor e = PatternValues({s.b, s.t, s.c, s.e}, 0.8f, seed + 2);
    const Tensor upstream =
        PatternValues({s.b, s.t, s.c * kCompression}, 1.0f, seed + 3);
    for (bool scalar : {false, true}) {
      ScopedForceScalar force(scalar);
      const std::string what =
          Describe(s) + (scalar ? " scalar" : " simd");
      nn::CaptureSink ref_sink;
      nn::ForwardContext ref_ctx;
      ref_ctx.capture = &ref_sink;
      ag::Variable e_ref(e, /*requires_grad=*/true);
      const BlockRun want =
          Finish(ComposedFeatureInteraction(e_ref, ParamsOf(module),
                                            kCompression, &ref_ctx),
                 e_ref, upstream, &module, &ref_sink);
      for (int64_t n : {1, 2, 8}) {
        par::ScopedNumThreads scoped(n);
        nn::CaptureSink sink;
        nn::ForwardContext ctx;
        ctx.capture = &sink;
        ag::Variable e_leaf(e, /*requires_grad=*/true);
        ExpectSameRun(Finish(module.Forward(e_leaf, &ctx), e_leaf, upstream,
                             &module, &sink),
                      want, what + " threads=" + std::to_string(n));
        if (HasFailure()) return;
      }
    }
  }
}

TEST(FeatureBlockTest, ChainMatchesComposedForEveryEmbeddingVariant) {
  // Embedding feeding interaction, as ELDA-Net runs them: the embedding's
  // upstream gradient is the interaction's input gradient.
  constexpr int64_t kCompression = 4;
  const Shape s{6, 7, 37, 24};
  uint64_t seed = 12000;
  for (const EmbeddingConfig& config : AllEmbeddingConfigs()) {
    seed += 10;
    Rng rng(seed);
    BiDirectionalEmbedding embedding(s.c, s.e, config.variant, -3.0f, 3.0f,
                                     config.use_missing, &rng);
    FeatureInteraction feature(s.c, s.e, kCompression, &rng);
    RandomizeParameters(&embedding, seed + 1);
    RandomizeParameters(&feature, seed + 2);
    const Tensor x = PatternValues({s.b, s.t, s.c}, 1.8f, seed + 3);
    const Tensor mask = PatternMask(s.b, s.t, s.c, seed + 4);
    const Tensor upstream =
        PatternValues({s.b, s.t, s.c * kCompression}, 1.0f, seed + 5);
    auto run = [&](bool composed) {
      ag::Variable x_leaf(x, /*requires_grad=*/true);
      ag::Variable e =
          composed ? ComposedEmbeddingWithNever(
                         x_leaf, NeverFromMask(mask), TablesOf(embedding),
                         config.variant, -3.0f, 3.0f, config.use_missing)
                   : embedding.Forward(x_leaf, mask);
      ag::Variable f =
          composed ? ComposedFeatureInteraction(e, ParamsOf(feature),
                                                kCompression, nullptr)
                   : feature.Forward(e);
      BlockRun r = Finish(f, x_leaf, upstream, &feature, nullptr);
      for (const ag::Variable& v : embedding.Parameters()) {
        r.param_grads.push_back(v.grad().Clone());
      }
      embedding.ZeroGrad();
      return r;
    };
    const BlockRun want = run(true);
    ExpectSameRun(run(false), want, Describe(config));
  }
}

TEST(FeatureBlockTest, OneTapeNodePerModuleAndNoneWithoutGrad) {
  const Shape s{2, 3, 5, 4};
  const Tensor x = PatternValues({s.b, s.t, s.c}, 1.0f, 31);
  const Tensor mask = PatternMask(s.b, s.t, s.c, 32);
  for (const EmbeddingConfig& config : AllEmbeddingConfigs()) {
    Rng rng(33);
    BiDirectionalEmbedding embedding(s.c, s.e, config.variant, -3.0f, 3.0f,
                                     config.use_missing, &rng);
    FeatureInteraction feature(s.c, s.e, 2, &rng);
    int64_t before = ag::TapeNodesAllocated();
    ag::Variable e = embedding.Forward(ag::Constant(x), mask);
    EXPECT_EQ(ag::TapeNodesAllocated() - before, 1) << Describe(config);
    before = ag::TapeNodesAllocated();
    ag::Variable f = feature.Forward(e);
    EXPECT_EQ(ag::TapeNodesAllocated() - before, 1) << Describe(config);
    {
      ag::NoGradScope no_grad;
      before = ag::TapeNodesAllocated();
      nn::CaptureSink sink;
      nn::ForwardContext ctx;
      ctx.capture = &sink;
      ag::Variable e0 = embedding.Forward(ag::Constant(x), mask);
      ag::Variable f0 = feature.Forward(e0, &ctx);
      EXPECT_EQ(ag::TapeNodesAllocated() - before, 0) << Describe(config);
      ExpectSameBits(e0.value(), e.value(), Describe(config) + " no-grad e");
      ExpectSameBits(f0.value(), f.value(), Describe(config) + " no-grad f");
      EXPECT_TRUE(sink.Contains("feature_attention"));
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace elda
