// ELDA-Net's feature-level block as fused autograd ops: the bodies of
// BiDirectionalEmbedding::ForwardWithNever (Eq. 2) and
// FeatureInteraction::Forward (Eqs. 3-6), each one tape node whose values
// and gradients are bitwise equal to the composed chain of per-op kernels
// it replaces (tests/feature_block_test.cc holds that chain).
//
// This translation unit alone is compiled with -ffp-contract=off: every
// elementwise expression must round each product and sum separately, as
// the composed kernels did, while the products that form GEMM-style chains
// ask for fused multiply-add explicitly. The modules' constructors stay in
// embedding.cc and feature_interaction.cc under the default flags, which
// keeps their parameter initialisation bit-for-bit what it was.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/embedding.h"
#include "core/feature_interaction.h"
#include "mem/prof.h"
#include "par/par.h"
#include "tensor/simd_math.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {

// ---- BiDirectionalEmbedding -------------------------------------------------

ag::Variable BiDirectionalEmbedding::ForwardWithNever(
    const ag::Variable& x, const Tensor& never) const {
  const Tensor& xv = x.value();
  ELDA_CHECK_EQ(xv.dim(), 3);
  ELDA_CHECK_EQ(xv.shape(2), num_features_);
  const int64_t batch = xv.shape(0);
  const int64_t steps = xv.shape(1);
  const int64_t features = num_features_;
  const int64_t dim = embed_dim_;
  if (use_missing_embedding_) {
    ELDA_CHECK(never.defined());
    ELDA_CHECK(never.shape() ==
               (std::vector<int64_t>{batch, 1, features, 1}));
  }

  // One elementwise op from (x, never) to e, evaluating per element the
  // float expressions of the composed chain it replaces, in its order:
  //   bi:   wa = (x + -a) * 1/(b-a);  wb = ((x * -1) + b) * 1/(b-a);
  //         e = (wa * V_a) + (wb * V_b)                         (Eq. 2)
  //   fm:   e = x * V
  //   star: z = |x - 0| <= 1e-6;  e = (e * (1 - z)) + z
  //   V_m:  e = (e * (1 - never)) + (never * V_m)
  // This file is compiled with -ffp-contract=off, so no product-sum here
  // is contracted into an fma the composed kernels never ran.
  const bool bi = variant_ == EmbeddingVariant::kBiDirectional ||
                  variant_ == EmbeddingVariant::kBiDirectionalStar;
  const bool star = variant_ == EmbeddingVariant::kBiDirectionalStar ||
                    variant_ == EmbeddingVariant::kFmLinearStar;
  const bool vm = use_missing_embedding_;
  const float lower = lower_;
  const float upper = upper_;
  const float inv_range = 1.0f / (upper - lower);
  // Per-row scalars shared by the forward and backward kernels.
  struct Row {
    float x, wa, wb, keep, zero, never, keep_never;
  };
  auto row_scalars = [lower, upper, inv_range](float xr, float nv) {
    Row r;
    r.x = xr;
    r.wa = (xr + -lower) * inv_range;
    r.wb = ((xr * -1.0f) + upper) * inv_range;
    r.zero = std::fabs(xr - 0.0f) <= 1e-6f ? 1.0f : 0.0f;
    r.keep = 1.0f - r.zero;
    r.never = nv;
    r.keep_never = 1.0f - nv;
    return r;
  };

  std::vector<ag::Variable> parents = {x};
  if (bi) {
    parents.push_back(v_lower_);
    parents.push_back(v_upper_);
  } else {
    parents.push_back(v_linear_);
  }
  if (vm) parents.push_back(v_missing_);
  const float* ta = (bi ? v_lower_ : v_linear_).value().data();
  const float* tb = bi ? v_upper_.value().data() : nullptr;
  const float* tm = vm ? v_missing_.value().data() : nullptr;

  Tensor out = Tensor::Empty({batch, steps, features, dim});
  {
    ELDA_PROF_SCOPE("BiDirectionalEmbedding");
    const float* px = xv.data();
    const float* pn = vm ? never.data() : nullptr;
    float* po = out.data();
    const int64_t rows = batch * steps * features;
    const int64_t grain =
        std::max<int64_t>(1, par::kElementGrain / std::max<int64_t>(1, dim));
    par::ParallelFor(0, rows, grain, [&](int64_t r0, int64_t r1) {
      for (int64_t row = r0; row < r1; ++row) {
        const int64_t c = row % features;
        const int64_t b = row / (steps * features);
        const Row r = row_scalars(px[row], vm ? pn[b * features + c] : 0.0f);
        const float* va = ta + c * dim;
        const float* vb = bi ? tb + c * dim : nullptr;
        const float* vmiss = vm ? tm + c * dim : nullptr;
        float* orow = po + row * dim;
        for (int64_t k = 0; k < dim; ++k) {
          float e = bi ? (r.wa * va[k]) + (r.wb * vb[k]) : r.x * va[k];
          if (star) e = (e * r.keep) + r.zero;
          if (vm) e = (e * r.keep_never) + (r.never * vmiss[k]);
          orow[k] = e;
        }
      }
    });
  }

  return ag::MakeOpResult(
      out, std::move(parents),
      [batch, steps, features, dim, bi, star, vm, inv_range, row_scalars,
       x_value = xv, never_value = never](ag::internal::Node* n) {
        ELDA_PROF_SCOPE("BiDirectionalEmbeddingGrad");
        ag::internal::Node* x_node = n->parents[0].get();
        ag::internal::Node* a_node = n->parents[1].get();
        ag::internal::Node* b_node = bi ? n->parents[2].get() : nullptr;
        ag::internal::Node* m_node =
            vm ? n->parents[bi ? 3 : 2].get() : nullptr;
        const bool want_x = x_node->requires_grad;
        const bool want_a = a_node->requires_grad;
        const bool want_b = bi && b_node->requires_grad;
        const bool want_m = vm && m_node->requires_grad;
        const float* ta = a_node->value.data();
        const float* tb = bi ? b_node->value.data() : nullptr;
        // The composed backward, per element: the V_m Add/Mul hands
        // g * (1 - never) down; the star Mul hands g * (1 - z) down; the
        // anchor (or FM) Muls hand g * w to their tables and g * V towards
        // x. Every reduction runs in the order ReduceToShape and Sum run
        // it: ascending, seeded with the first row. The anchor tables sum
        // [B, T, C, E] over B first, then over T, and x sums over E. V_m's
        // product never * V_m is [B, 1, C, E], so its gradient first sums g
        // over T (the Add's broadcast), multiplies by never, then sums
        // over B.
        Tensor ga = want_a ? Tensor::Empty({features, dim}) : Tensor();
        Tensor gb = want_b ? Tensor::Empty({features, dim}) : Tensor();
        Tensor gm = want_m ? Tensor::Empty({features, dim}) : Tensor();
        Tensor gx = want_x ? Tensor::Empty({batch, steps, features})
                           : Tensor();
        const float* pg = n->grad.data();
        const float* px = x_value.data();
        const float* pn = vm ? never_value.data() : nullptr;
        // Lanes are features: a chunk walks the gradient rows in memory
        // order and keeps, per table, one partial sum over B for every
        // (t, c, k) of its features.
        par::ParallelFor(
            0, features, par::BalancedGrain(features, 1),
            [&](int64_t c0, int64_t c1) {
              const int64_t width = (c1 - c0) * dim;
              const int64_t part = steps * width;
              std::vector<float> partials(
                  static_cast<size_t>(2 * part + 2 * width), 0.0f);
              float* sa = partials.data();
              float* sb = sa + part;
              float* st = sb + part;   // V_m: this b's sum over T
              float* sm = st + width;  // V_m: sum over B so far
              for (int64_t b = 0; b < batch; ++b) {
                for (int64_t t = 0; t < steps; ++t) {
                  for (int64_t c = c0; c < c1; ++c) {
                    const int64_t row = (b * steps + t) * features + c;
                    const Row r = row_scalars(
                        px[row], vm ? pn[b * features + c] : 0.0f);
                    const float* g = pg + row * dim;
                    const float* va = ta + c * dim;
                    const float* vb = bi ? tb + c * dim : nullptr;
                    const int64_t col = (c - c0) * dim;
                    const int64_t off = t * width + col;
                    float x_a = 0.0f, x_b = 0.0f;
                    for (int64_t k = 0; k < dim; ++k) {
                      float g0 = vm ? g[k] * r.keep_never : g[k];
                      if (star) g0 = g0 * r.keep;
                      const float pa = g0 * (bi ? r.wa : r.x);
                      const float pb = bi ? g0 * r.wb : 0.0f;
                      if (b == 0) {
                        sa[off + k] = pa;
                        sb[off + k] = pb;
                      } else {
                        sa[off + k] += pa;
                        sb[off + k] += pb;
                      }
                      st[col + k] = t == 0 ? g[k] : st[col + k] + g[k];
                      if (want_x) {
                        const float qa = g0 * va[k];
                        const float qb = bi ? g0 * vb[k] : 0.0f;
                        x_a = k == 0 ? qa : x_a + qa;
                        x_b = k == 0 ? qb : x_b + qb;
                      }
                    }
                    if (want_x) {
                      // x reaches V_b's weight through MulScalar(x, -1)
                      // and V_a's through AddScalar; the DFS delivers the
                      // V_b branch first.
                      gx.data()[row] =
                          bi ? ((x_b * inv_range) * -1.0f) +
                                   (x_a * inv_range)
                             : x_a;
                    }
                  }
                }
                if (vm) {
                  for (int64_t c = c0; c < c1; ++c) {
                    const float nv = pn[b * features + c];
                    const int64_t col = (c - c0) * dim;
                    for (int64_t k = 0; k < dim; ++k) {
                      const float pm = st[col + k] * nv;
                      sm[col + k] = b == 0 ? pm : sm[col + k] + pm;
                    }
                  }
                }
              }
              auto reduce_steps = [&](const float* s, Tensor* dst) {
                if (!dst->defined()) return;
                for (int64_t c = c0; c < c1; ++c) {
                  float* o = dst->data() + c * dim;
                  const float* col = s + (c - c0) * dim;
                  for (int64_t k = 0; k < dim; ++k) o[k] = col[k];
                  for (int64_t t = 1; t < steps; ++t) {
                    for (int64_t k = 0; k < dim; ++k) {
                      o[k] += col[t * width + k];
                    }
                  }
                }
              };
              reduce_steps(sa, &ga);
              reduce_steps(sb, &gb);
              if (gm.defined()) {
                for (int64_t c = c0; c < c1; ++c) {
                  std::copy(sm + (c - c0) * dim, sm + (c - c0 + 1) * dim,
                            gm.data() + c * dim);
                }
              }
            });
        if (want_x) ag::internal::AccumulateGrad(x_node, gx);
        if (want_a) ag::internal::AccumulateGrad(a_node, ga);
        if (want_b) ag::internal::AccumulateGrad(b_node, gb);
        if (want_m) ag::internal::AccumulateGrad(m_node, gm);
      });
}

// ---- FeatureInteraction -----------------------------------------------------

namespace {

// -- Lane vectors -------------------------------------------------------------
//
// The tile products below run on lane vectors: kLanes adjacent outputs of
// one matrix row, each its own strict-k chain. A k step is one exactly
// rounded fma per lane, so the AVX2 and portable bodies produce the same
// bits as a scalar std::fma loop (the GEMM contract, tensor_ops.h). Eight
// lanes also suit AVX-512 machines: the block's rows are 24, 37 and 48
// floats wide, which 16-lane vectors would pad by a quarter. The portable
// body also runs when ELDA_SIMD is off, which keeps it covered by the
// scalar builds' bitwise tests.

constexpr int64_t kLanes = 8;
#if ELDA_SIMD_AVX2
using Vec = __m256;
inline Vec VZero() { return _mm256_setzero_ps(); }
inline Vec VLoad(const float* p) { return _mm256_loadu_ps(p); }
inline void VStore(float* p, Vec v) { _mm256_storeu_ps(p, v); }
inline Vec VFma(float a, Vec b, Vec c) {
  return _mm256_fmadd_ps(_mm256_set1_ps(a), b, c);
}
#else
struct Vec {
  float v[kLanes];
};
inline Vec VZero() { return Vec{}; }
inline Vec VLoad(const float* p) {
  Vec r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}
inline void VStore(float* p, const Vec& v) {
  std::memcpy(p, v.v, sizeof(v.v));
}
inline Vec VFma(float a, const Vec& b, Vec c) {
  for (int64_t l = 0; l < kLanes; ++l) c.v[l] = std::fma(a, b.v[l], c.v[l]);
  return c;
}
#endif

int64_t PadLanes(int64_t n) { return (n + kLanes - 1) / kLanes * kLanes; }

// A scalar operand a(r, p) = data[r * row_stride + p * k_stride]; strides
// let one panel kernel read a matrix or its transpose.
struct Operand {
  const float* data;
  int64_t row_stride;
  int64_t k_stride;
};

// out[r][lanes] = sum_p a(r, p) * b[p][lanes] for R rows and V adjacent
// lane vectors: R * V * kLanes chains from +0, k ascending, held in
// registers. Two vectors per row cut the operand loads per fma by a third.
template <int R, int V>
void PanelBlock(Operand a, const float* b, int64_t ldb, int64_t k, float* out,
                int64_t ldo) {
  Vec acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = VZero();
  }
  for (int64_t p = 0; p < k; ++p) {
    Vec bv[V];
    for (int v = 0; v < V; ++v) bv[v] = VLoad(b + p * ldb + v * kLanes);
    const float* ap = a.data + p * a.k_stride;
    for (int r = 0; r < R; ++r) {
      const float av = ap[r * a.row_stride];
      for (int v = 0; v < V; ++v) acc[r][v] = VFma(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) VStore(out + r * ldo + v * kLanes, acc[r][v]);
  }
}

using PanelFn = void (*)(Operand, const float*, int64_t, int64_t, float*,
                         int64_t);

// All rows of one column strip of V lane vectors: full blocks of R rows,
// then one block for the remaining rows.
template <int R, int V>
void PanelStrip(Operand a, const float* b, int64_t ldb, int64_t k, float* out,
                int64_t ldo, int64_t rows) {
  static constexpr PanelFn kTails[8] = {
      nullptr,          PanelBlock<1, V>, PanelBlock<2, V>, PanelBlock<3, V>,
      PanelBlock<4, V>, PanelBlock<5, V>, PanelBlock<6, V>, PanelBlock<7, V>};
  static_assert(R <= 8, "tail table covers R <= 8");
  int64_t i = 0;
  for (; i + R <= rows; i += R) {
    PanelBlock<R, V>({a.data + i * a.row_stride, a.row_stride, a.k_stride},
                     b, ldb, k, out + i * ldo, ldo);
  }
  if (i < rows) {
    kTails[rows - i]({a.data + i * a.row_stride, a.row_stride, a.k_stride},
                     b, ldb, k, out + i * ldo, ldo);
  }
}

// out[r, j] = sum_p a(r, p) * b[p, j] for r < rows and j < width, where b
// and out are lane-padded (row strides ldb, ldo >= PadLanes(width)). Every
// element is the strict-k chain of GemmReference; pad lanes are computed
// and stored but never read as results.
void PanelProduct(Operand a, const float* b, int64_t ldb, int64_t k,
                  float* out, int64_t ldo, int64_t rows, int64_t width) {
  int64_t v = 0;
  for (; v + 2 * kLanes <= PadLanes(width); v += 2 * kLanes) {
    PanelStrip<6, 2>(a, b + v, ldb, k, out + v, ldo, rows);
  }
  if (v < width) PanelStrip<8, 1>(a, b + v, ldb, k, out + v, ldo, rows);
}

// et[k * ldt + i] = e[i * E + k]: the tile transposed, 8 x 8 blocks at a
// time where AVX2 is on (pure data movement, so any path gives the same
// bits), scalar for the edges.
void TransposeTile(const float* __restrict__ e, int64_t rows, int64_t cols,
                   float* __restrict__ et, int64_t ldt) {
  int64_t i0 = 0;
#if ELDA_SIMD_AVX2
  for (; i0 + 8 <= rows; i0 += 8) {
    int64_t k0 = 0;
    for (; k0 + 8 <= cols; k0 += 8) {
      __m256 r[8], t[8];
      for (int64_t i = 0; i < 8; ++i) {
        r[i] = _mm256_loadu_ps(e + (i0 + i) * cols + k0);
      }
      for (int64_t i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
      }
      for (int64_t i = 0; i < 8; i += 4) {
        r[i] = _mm256_shuffle_ps(t[i], t[i + 2], 0x44);
        r[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], 0xEE);
        r[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0x44);
        r[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], 0xEE);
      }
      for (int64_t k = 0; k < 4; ++k) {
        _mm256_storeu_ps(et + (k0 + k) * ldt + i0,
                         _mm256_permute2f128_ps(r[k], r[k + 4], 0x20));
        _mm256_storeu_ps(et + (k0 + k + 4) * ldt + i0,
                         _mm256_permute2f128_ps(r[k], r[k + 4], 0x31));
      }
    }
    for (; k0 < cols; ++k0) {
      for (int64_t i = i0; i < i0 + 8; ++i) et[k0 * ldt + i] = e[i * cols + k0];
    }
  }
#endif
  for (; i0 < rows; ++i0) {
    for (int64_t k = 0; k < cols; ++k) et[k * ldt + i0] = e[i0 * cols + k];
  }
}

// -- Elementwise row kernels ------------------------------------------------
//
// Restrict-qualified so the compiler vectorizes them; each is one composed
// op (or a fixed sequence of them) per element.

// ep = e, u = e ⊙ W.
void CopyAndScale(const float* __restrict__ e, const float* __restrict__ w,
                  float* __restrict__ ep, float* __restrict__ u, int64_t n) {
  for (int64_t k = 0; k < n; ++k) {
    ep[k] = e[k];
    u[k] = e[k] * w[k];
  }
}

// Score row: (s + b_i) + mask_ij, the two broadcast Adds in graph order.
void AddBiasAndMask(float* __restrict__ row, float b,
                    const float* __restrict__ mask, int64_t n) {
  for (int64_t j = 0; j < n; ++j) row[j] = (row[j] + b) + mask[j];
}

// r = relu([e ; e ⊙ weighted]).
void ReluConcat(const float* __restrict__ e, const float* __restrict__ w,
                float* __restrict__ r, int64_t n) {
  for (int64_t k = 0; k < n; ++k) {
    r[k] = e[k] > 0.0f ? e[k] : 0.0f;
    const float context = e[k] * w[k];
    r[n + k] = context > 0.0f ? context : 0.0f;
  }
}

// g = g * (r > 0): Relu's backward Mul by GreaterThanScalar, a multiply
// (not a select), so -0 and NaN propagate as in the composed graph.
void ReluGrad(float* __restrict__ g, const float* __restrict__ r, int64_t n) {
  for (int64_t q = 0; q < n; ++q) g[q] = g[q] * (r[q] > 0.0f ? 1.0f : 0.0f);
}

void MulRows(const float* __restrict__ a, const float* __restrict__ b,
             float* __restrict__ out, int64_t n) {
  for (int64_t k = 0; k < n; ++k) out[k] = a[k] * b[k];
}

// e's gradient row: its five contributions in tape order.
void SumEmbeddingGrad(const float* __restrict__ g_comb,
                      const float* __restrict__ weighted,
                      const float* __restrict__ ge_alpha,
                      const float* __restrict__ ge_scores,
                      const float* __restrict__ g_u,
                      const float* __restrict__ w, float* __restrict__ ge,
                      int64_t n) {
  for (int64_t k = 0; k < n; ++k) {
    const float from_context = g_comb[n + k] * weighted[k];
    ge[k] = (((g_comb[k] + from_context) + ge_alpha[k]) + ge_scores[k]) +
            g_u[k] * w[k];
  }
}

// One (b, t) tile of the block: C features by E embedding dims, and the
// parameters every tile shares, lane-padded once per call.
struct TileParams {
  TileParams(int64_t c_, int64_t e_, int64_t d_, const float* w_,
             const float* bias_, const float* mask_, const float* p)
      : c(c_), e(e_), d(d_), cp(PadLanes(c_)), ep(PadLanes(e_)),
        e2p(PadLanes(2 * e_)), dp(PadLanes(d_)), w(w_), bias(bias_),
        mask(mask_),
        p_pad(static_cast<size_t>(2 * e_ * dp), 0.0f),
        pt_pad(static_cast<size_t>(d_ * e2p), 0.0f) {
    for (int64_t q = 0; q < 2 * e; ++q) {
      for (int64_t m = 0; m < d; ++m) {
        p_pad[q * dp + m] = p[q * d + m];
        pt_pad[m * e2p + q] = p[q * d + m];
      }
    }
  }
  int64_t c, e, d;
  int64_t cp, ep, e2p, dp;  // lane-padded row lengths
  const float* w;           // [C, E]  W_i
  const float* bias;        // [C]     b_i
  const float* mask;        // [C, C]  -1e9 on the diagonal, +0 elsewhere
  std::vector<float> p_pad;   // [2E, dp] compression map p
  std::vector<float> pt_pad;  // [d, e2p] its transpose
};

// Scratch for one tile's intermediates, lane-padded. At C = 37, E = 24 the
// set is ~90 KB, so a tile's forward and backward stay in L2. Each thread
// keeps one (ScratchFor), laid out and zeroed again only when the tile shape
// changes: pad lanes then hold zeros or values computed from zeros, and no
// product ever reads a pad lane into a real output.
struct TileScratch {
  void Reset(const TileParams& tp) {
    if (tp.c == c && tp.e == e && tp.d == d) return;
    c = tp.c;
    e = tp.e;
    d = tp.d;
    const int64_t sizes[] = {
        tp.c * tp.ep,  tp.e * tp.cp,  tp.c * tp.ep,  tp.c * tp.cp,
        tp.c * tp.ep,  tp.c * tp.e2p, tp.c * tp.dp,  tp.c * tp.e2p,
        tp.c * tp.ep,  tp.c * tp.cp,  tp.c * tp.cp,  tp.c * tp.ep,
        tp.c * tp.ep,  tp.c * tp.ep};
    float** slots[] = {&e_pad, &et,     &u,       &alpha,  &weighted,
                       &r,     &f,      &g_comb,  &g_w,    &g_alpha,
                       &g_s,   &g_u,    &ge_alpha, &ge_scores};
    int64_t total = 0;
    for (int64_t n : sizes) total += n;
    buffer.assign(static_cast<size_t>(total), 0.0f);
    float* at = buffer.data();
    for (size_t i = 0; i < std::size(sizes); ++i) {
      *slots[i] = at;
      at += sizes[i];
    }
  }
  int64_t c = -1, e = -1, d = -1;  // the layout's tile shape
  std::vector<float> buffer;
  float* e_pad;      // [C, ep]  e
  float* et;         // [E, cp]  e transposed
  float* u;          // [C, ep]  e ⊙ W
  float* alpha;      // [C, cp]  scores, then α
  float* weighted;   // [C, ep]  α e
  float* r;          // [C, e2p] relu([e ; e ⊙ α e])
  float* f;          // [C, dp]  r p
  float* g_comb;     // [C, e2p] grad of [e ; e ⊙ α e]
  float* g_w;        // [C, ep]  grad of α e
  float* g_alpha;    // [C, cp]  grad of α
  float* g_s;        // [C, cp]  grad of the scores
  float* g_u;        // [C, ep]  grad of u
  float* ge_alpha;   // [C, ep]  αᵀ g_w: e's share through α e
  float* ge_scores;  // [C, ep]  (uᵀ g_s)ᵀ: e's share through u eᵀ
};

TileScratch& ScratchFor(const TileParams& tp) {
  thread_local TileScratch scratch;
  scratch.Reset(tp);
  return scratch;
}

// The forward of one tile, op for op as the composed chain ran it:
//   u = e ⊙ W;  s = u eᵀ;  s = (s + b_i) + mask_ij;  α = softmax_j(s);
//   weighted = α e;  r = relu([e ; e ⊙ weighted]);  f = r p.
// Every product is a strict-k fma chain from +0 (the GEMM contract), the
// softmax is simd::SoftmaxRow, and the elementwise ops are the same single
// float operations (this file has -ffp-contract=off). Leaves α, r and the
// other intermediates in `s`; f only when `want_f`.
void TileForward(const TileParams& tp, const float* e, TileScratch* s,
                 bool want_f) {
  const int64_t C = tp.c, E = tp.e;
  for (int64_t i = 0; i < C; ++i) {
    CopyAndScale(e + i * E, tp.w + i * E, s->e_pad + i * tp.ep,
                 s->u + i * tp.ep, E);
  }
  TransposeTile(e, C, E, s->et, tp.cp);
  PanelProduct({s->u, tp.ep, 1}, s->et, tp.cp, E, s->alpha, tp.cp, C, C);
  // Two passes: a row's tail, read by SoftmaxRow's masked load, must not
  // still sit in the store buffer (masked loads cannot forward from it).
  for (int64_t i = 0; i < C; ++i) {
    AddBiasAndMask(s->alpha + i * tp.cp, tp.bias[i], tp.mask + i * C, C);
  }
  for (int64_t i = 0; i < C; ++i) {
    float* row = s->alpha + i * tp.cp;
    simd::SoftmaxRow(row, row, C);
  }
  PanelProduct({s->alpha, tp.cp, 1}, s->e_pad, tp.ep, C, s->weighted, tp.ep,
               C, E);
  for (int64_t i = 0; i < C; ++i) {
    ReluConcat(s->e_pad + i * tp.ep, s->weighted + i * tp.ep,
               s->r + i * tp.e2p, E);
  }
  if (want_f) {
    PanelProduct({s->r, tp.e2p, 1}, tp.p_pad.data(), tp.dp, 2 * E, s->f,
                 tp.dp, C, tp.d);
  }
}

// The backward of one tile, recomputing its forward from e. Writes e's
// gradient (when `ge` is set) and the per-tile terms of the cross-tile
// reductions — g_u ⊙ e for W, the score gradient for b (when `g_s_out` is
// set), relu's output for p (when `r_out` is set). Each term is the
// composed graph's own expression:
//   g_r = g_f pᵀ;  g_comb = g_r * (r > 0)   (Mul by GreaterThanScalar)
//   e ⊙ weighted: g_w = g_ctx * e, and e gets g_ctx * weighted
//   α e:          g_α = g_w eᵀ, and e gets αᵀ g_w
//   softmax:      g_s = simd::SoftmaxGradRow(g_α, α)
//   u eᵀ:         g_u = g_s e, and e gets (uᵀ g_s)ᵀ
//   e ⊙ W:        e gets g_u * W, W gets g_u * e
// e's five contributions are summed in the order the tape delivered them
// (reverse topological order of the composed graph): Concat, the Mul by
// weighted, the MatMul by α, the transposed MatMul, the Mul by W.
void TileBackward(const TileParams& tp, const float* e, const float* gf,
                  TileScratch* s, float* ge, float* g_w_term, float* g_s_out,
                  float* r_out) {
  const int64_t C = tp.c, E = tp.e, E2 = 2 * tp.e;
  TileForward(tp, e, s, /*want_f=*/false);
  PanelProduct({gf, tp.d, 1}, tp.pt_pad.data(), tp.e2p, tp.d, s->g_comb,
               tp.e2p, C, E2);
  for (int64_t i = 0; i < C; ++i) {
    float* gc = s->g_comb + i * tp.e2p;
    const float* ri = s->r + i * tp.e2p;
    ReluGrad(gc, ri, E2);
    MulRows(gc + E, s->e_pad + i * tp.ep, s->g_w + i * tp.ep, E);
    if (r_out != nullptr) std::memcpy(r_out + i * E2, ri, E2 * sizeof(float));
  }
  PanelProduct({s->g_w, tp.ep, 1}, s->et, tp.cp, E, s->g_alpha, tp.cp, C, C);
  for (int64_t i = 0; i < C; ++i) {
    simd::SoftmaxGradRow(s->g_alpha + i * tp.cp, s->alpha + i * tp.cp,
                         s->g_s + i * tp.cp, C);
    if (g_s_out != nullptr) {
      std::memcpy(g_s_out + i * C, s->g_s + i * tp.cp, C * sizeof(float));
    }
  }
  PanelProduct({s->g_s, tp.cp, 1}, s->e_pad, tp.ep, C, s->g_u, tp.ep, C, E);
  if (g_w_term != nullptr) {
    for (int64_t i = 0; i < C; ++i) {
      MulRows(s->g_u + i * tp.ep, e + i * E, g_w_term + i * E, E);
    }
  }
  if (ge == nullptr) return;
  // Transposed reads: row j of αᵀ g_w takes a(j, i) = α[i, j].
  PanelProduct({s->alpha, 1, tp.cp}, s->g_w, tp.ep, C, s->ge_alpha, tp.ep, C,
               E);
  PanelProduct({s->g_s, 1, tp.cp}, s->u, tp.ep, C, s->ge_scores, tp.ep, C, E);
  for (int64_t i = 0; i < C; ++i) {
    const int64_t x = i * tp.ep;
    SumEmbeddingGrad(s->g_comb + i * tp.e2p, s->weighted + x,
                     s->ge_alpha + x, s->ge_scores + x, s->g_u + x,
                     tp.w + i * E, ge + i * E, E);
  }
}

// Minimum flops worth one parallel chunk of tiles.
constexpr int64_t kTileGrainFlops = 1 << 16;

}  // namespace

ag::Variable FeatureInteraction::Forward(const ag::Variable& e,
                                         const nn::ForwardContext* ctx) const {
  const Tensor& ev = e.value();
  ELDA_CHECK_EQ(ev.dim(), 4);
  const int64_t batch = ev.shape(0);
  const int64_t steps = ev.shape(1);
  ELDA_CHECK_EQ(ev.shape(2), num_features_);
  ELDA_CHECK_EQ(ev.shape(3), embed_dim_);
  const int64_t C = num_features_, E = embed_dim_, D = compression_;
  const int64_t tiles = batch * steps;
  const int64_t tile_flops = 2 * C * C * E + 2 * C * E * D;
  const int64_t grain = par::BalancedGrain(
      tiles,
      std::max<int64_t>(1, kTileGrainFlops / std::max<int64_t>(1, tile_flops)));

  Tensor f = Tensor::Empty({batch, steps, C * D});
  const bool capture = ctx != nullptr && ctx->capture != nullptr;
  Tensor alpha = capture ? Tensor::Empty({batch, steps, C, C}) : Tensor();
  {
    ELDA_PROF_SCOPE("FeatureInteraction");
    const TileParams tp(C, E, D, w_alpha_.value().data(),
                        b_alpha_.value().data(), diag_mask_.data(),
                        p_.value().data());
    const float* pe = ev.data();
    float* pf = f.data();
    float* pa = capture ? alpha.data() : nullptr;
    par::ParallelFor(0, tiles, grain, [&](int64_t t0, int64_t t1) {
      TileScratch& s = ScratchFor(tp);
      for (int64_t t = t0; t < t1; ++t) {
        TileForward(tp, pe + t * C * E, &s, /*want_f=*/true);
        for (int64_t i = 0; i < C; ++i) {
          std::memcpy(pf + (t * C + i) * D, s.f + i * tp.dp, D * sizeof(float));
          if (pa != nullptr) {
            std::memcpy(pa + (t * C + i) * C, s.alpha + i * tp.cp,
                        C * sizeof(float));
          }
        }
      }
    });
  }
  if (capture) ctx->Capture("feature_attention", alpha);

  return ag::MakeOpResult(
      f, {e, w_alpha_, b_alpha_, p_},
      [C, E, D, tiles, grain, diag = diag_mask_](ag::internal::Node* n) {
        ELDA_PROF_SCOPE("FeatureInteractionGrad");
        ag::internal::Node* e_node = n->parents[0].get();
        ag::internal::Node* w_node = n->parents[1].get();
        ag::internal::Node* b_node = n->parents[2].get();
        ag::internal::Node* p_node = n->parents[3].get();
        const TileParams tp(C, E, D, w_node->value.data(),
                            b_node->value.data(), diag.data(),
                            p_node->value.data());
        // e's gradient, and the per-tile terms of the three cross-tile
        // parameter reductions, which then run in the composed graph's
        // order through the same kernels: ReduceToShape (inside
        // AccumulateGrad) sums W's term over B*T, and b's score gradient
        // over B*T and then over j; p's gradient is MatMul(rᵀ, g_f) over
        // the flattened rows.
        Tensor ge = e_node->requires_grad ? Tensor::Empty(e_node->value.shape())
                                          : Tensor();
        Tensor g_w = w_node->requires_grad ? Tensor::Empty({tiles, C, E})
                                           : Tensor();
        Tensor g_s = b_node->requires_grad ? Tensor::Empty({tiles, C, C})
                                           : Tensor();
        Tensor r = p_node->requires_grad ? Tensor::Empty({tiles * C, 2 * E})
                                         : Tensor();
        const float* pe = e_node->value.data();
        const float* pg = n->grad.data();
        par::ParallelFor(0, tiles, grain, [&](int64_t t0, int64_t t1) {
          TileScratch& s = ScratchFor(tp);
          for (int64_t t = t0; t < t1; ++t) {
            TileBackward(tp, pe + t * C * E, pg + t * C * D, &s,
                         ge.defined() ? ge.data() + t * C * E : nullptr,
                         g_w.defined() ? g_w.data() + t * C * E : nullptr,
                         g_s.defined() ? g_s.data() + t * C * C : nullptr,
                         r.defined() ? r.data() + t * C * 2 * E : nullptr);
          }
        });
        if (ge.defined()) ag::internal::AccumulateGrad(e_node, ge);
        if (g_w.defined()) ag::internal::AccumulateGrad(w_node, g_w);
        if (g_s.defined()) {
          ag::internal::AccumulateGrad(
              b_node, ReduceToShape(g_s, {C, 1}).Reshape({C}));
        }
        if (r.defined()) {
          ag::internal::AccumulateGrad(
              p_node, MatMul(r, n->grad.Reshape({tiles * C, D}),
                             /*trans_a=*/true, /*trans_b=*/false));
        }
      });
}

}  // namespace core
}  // namespace elda
