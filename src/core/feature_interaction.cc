#include "core/feature_interaction.h"

#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace elda {
namespace core {

FeatureInteraction::FeatureInteraction(int64_t num_features,
                                       int64_t embed_dim,
                                       int64_t compression, Rng* rng)
    : num_features_(num_features),
      embed_dim_(embed_dim),
      compression_(compression) {
  // A wider-than-Xavier init keeps the attention logits sensitive to the
  // embedding magnitudes from the first epoch: abnormal values (large |e|)
  // then visibly reshape the softmax even before W is trained, which is the
  // behaviour the paper's interpretability study exhibits.
  w_alpha_ = RegisterParameter(
      "w_alpha",
      Tensor::Uniform({num_features, embed_dim}, -0.8f, 0.8f, rng));
  b_alpha_ = RegisterParameter("b_alpha", Tensor::Zeros({num_features}));
  p_ = RegisterParameter(
      "p", nn::XavierUniform(2 * embed_dim, compression,
                             {2 * embed_dim, compression}, rng));
  diag_mask_ = Tensor({num_features, num_features});
  for (int64_t i = 0; i < num_features; ++i) {
    diag_mask_.at({i, i}) = -1e9f;
  }
}

}  // namespace core
}  // namespace elda
