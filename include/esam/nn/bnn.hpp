// Binary Neural Network training substrate (paper sec. 4.4.2).
//
// The paper trains the MNIST network "as a Binary Neural Network (BNN) with
// a sign activation function and per-neuron biases", then converts it to a
// Binary-SNN with per-neuron thresholds following Kim et al. (ICCAD'20).
// This module implements that trainer from scratch:
//  * fully-connected layers with latent float weights, binarized to {-1,+1}
//    on the forward pass, and float per-neuron biases;
//  * sign activations with straight-through-estimator (STE) gradients
//    (gradient passed where |preact| <= sqrt(fan_in), else zeroed);
//  * softmax cross-entropy on the last layer's (binary-weight) scores;
//  * Adam updates on the latent weights with [-1, 1] clipping.
//
// Every forward pass (scores, predict, forward_trace, accuracy and the
// trainer's forward half) runs on a PackedBnn: the weights' sign bits packed
// 64 per word, with XNOR-popcount preactivations that equal the float
// Wb x + b bit for bit (see PackedLayer). Inputs must therefore be exactly
// {-1,+1}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "esam/nn/matrix.hpp"
#include "esam/util/log.hpp"
#include "esam/util/rng.hpp"

namespace esam::nn {

/// One binarized fully-connected layer.
struct BnnLayer {
  /// Latent (real-valued) weights, out x in; binarize() gives the deployed
  /// {-1,+1} weights.
  Matrix latent;
  /// Per-neuron bias (float, not binarized -- it folds into the SNN
  /// threshold during conversion).
  std::vector<float> bias;

  BnnLayer() = default;
  BnnLayer(std::size_t out, std::size_t in, util::Rng& rng);

  [[nodiscard]] std::size_t in_features() const { return latent.cols(); }
  [[nodiscard]] std::size_t out_features() const { return latent.rows(); }

  /// Deployed binary weight: sign(latent) in {-1,+1} (sign(0) := +1).
  [[nodiscard]] float binary_weight(std::size_t out, std::size_t in) const;
};

/// Sign activation in {-1,+1} with sign(0) := +1 (matches the SNN mapping
/// where a neuron at exactly threshold fires).
float sign_activation(float x);

/// A stack of BnnLayers: hidden layers use sign activations; the last
/// layer's pre-activations are the class scores.
class BnnNetwork {
 public:
  BnnNetwork() = default;
  /// `shape` e.g. {768, 256, 256, 256, 10}.
  BnnNetwork(const std::vector<std::size_t>& shape, util::Rng& rng);

  [[nodiscard]] const std::vector<BnnLayer>& layers() const { return layers_; }
  [[nodiscard]] std::vector<BnnLayer>& layers() { return layers_; }
  [[nodiscard]] std::vector<std::size_t> shape() const;

  /// Class scores for a {-1,+1} input vector. scores, predict and
  /// forward_trace pack the weights on every call; loops over many inputs
  /// should build one PackedBnn instead. All four throw
  /// std::invalid_argument on an input entry other than -1 or +1.
  [[nodiscard]] std::vector<float> scores(const std::vector<float>& x) const;

  /// argmax of scores.
  [[nodiscard]] std::size_t predict(const std::vector<float>& x) const;

  /// All layer activations (x, h1, ..., scores), for the SNN equivalence
  /// tests.
  [[nodiscard]] std::vector<std::vector<float>> forward_trace(
      const std::vector<float>& x) const;

  /// Fraction of correct predictions (one PackedBnn for the whole set).
  [[nodiscard]] double accuracy(const std::vector<std::vector<float>>& xs,
                                const std::vector<std::uint8_t>& ys) const;

  /// Binary serialization (latent weights + biases) for caching trained
  /// models between bench runs. save() writes to a temp file and renames it
  /// into place (atomic on POSIX: concurrent readers never see a torn
  /// cache) and stamps a CRC-32 over the payload; load() rejects any file
  /// whose checksum or framing does not hold -- including pre-CRC v1
  /// caches -- so callers simply retrain on false.
  bool save(const std::string& path) const;
  static bool load(const std::string& path, BnnNetwork& out);

 private:
  std::vector<BnnLayer> layers_;
};

/// Immutable XNOR-popcount snapshot of one layer: each row of sign(latent)
/// packed 64 bits per word (bit set for +1, tail bits zero), each row's
/// popcount, and a copy of the bias. For a {-1,+1} input x packed the same
/// way, with n = in_features(),
///   z[j] = float(n - 2 * popcount(w_j ^ x)) + bias[j]
///        = float(n - 2 * (ones(w_j) + ones(x) - 2 * and_count(w_j, x)))
///          + bias[j],
/// computed with the active util::simd kernels. This equals the float path
/// binarize(latent).multiply(x) + bias bit for bit: every partial sum of the
/// float dot product is an integer of magnitude <= n < 2^24, hence exact,
/// both paths map latent >= 0.0f (-0.0f included) to +1, and the bias is
/// added with the same single rounding. The snapshot does not follow later
/// edits to the layer; build a new one after changing `latent` or `bias`.
class PackedLayer {
 public:
  explicit PackedLayer(const BnnLayer& layer);

  [[nodiscard]] std::size_t out_features() const { return bias_.size(); }
  /// 64-bit words per packed row and per packed input.
  [[nodiscard]] std::size_t words() const { return words_; }

  /// z = Wb x + b for an input already packed into words() words (tail bits
  /// zero); `z` has out_features() entries.
  void preactivate(const std::uint64_t* x, float* z) const;

  /// Checked form: packs `x` (which must hold in_features() entries, each
  /// exactly -1 or +1) and returns z. Throws std::invalid_argument otherwise.
  [[nodiscard]] std::vector<float> preactivate(
      const std::vector<float>& x) const;

 private:
  std::size_t in_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  ///< out x words_, row-major
  std::vector<std::int32_t> ones_;   ///< popcount of each packed row
  std::vector<float> bias_;
};

/// Immutable packed snapshot of a whole network (one PackedLayer per layer).
/// Build it once per evaluation pass or training batch; it is not a cache
/// and never sees later edits to the BnnNetwork it was taken from.
class PackedBnn {
 public:
  explicit PackedBnn(const BnnNetwork& net);

  [[nodiscard]] const std::vector<PackedLayer>& layers() const {
    return layers_;
  }

  /// Same contracts as the BnnNetwork methods of the same names.
  [[nodiscard]] std::vector<float> scores(const std::vector<float>& x) const;
  [[nodiscard]] std::size_t predict(const std::vector<float>& x) const;
  [[nodiscard]] std::vector<std::vector<float>> forward_trace(
      const std::vector<float>& x) const;

 private:
  std::vector<PackedLayer> layers_;
};

/// Adam + STE trainer.
struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 64;
  float learning_rate = 3e-3f;
  float adam_beta1 = 0.9f;
  float adam_beta2 = 0.999f;
  float adam_eps = 1e-8f;
  std::uint64_t seed = 42;
  /// Progress callback interval in batches (0 = silent).
  std::size_t log_every = 0;
  /// Sink for progress lines when log_every != 0 (util::emit_log; nullptr
  /// routes to stderr).
  util::LogFn log_sink = nullptr;
  void* log_ctx = nullptr;
};

class BnnTrainer {
 public:
  /// Throws std::invalid_argument when cfg.batch_size is 0 or `net` has no
  /// layers.
  BnnTrainer(BnnNetwork& net, TrainConfig cfg);

  /// One full epoch over (xs, ys); returns mean cross-entropy loss. Every
  /// xs entry must be exactly -1 or +1 (the forward half is packed) and
  /// every label below the last layer's out_features(), or the epoch throws
  /// std::invalid_argument.
  double train_epoch(const std::vector<std::vector<float>>& xs,
                     const std::vector<std::uint8_t>& ys);

  /// Full training run; returns final training loss.
  double fit(const std::vector<std::vector<float>>& xs,
             const std::vector<std::uint8_t>& ys);

 private:
  void train_batch(const std::vector<std::vector<float>>& xs,
                   const std::vector<std::uint8_t>& ys,
                   const std::vector<std::size_t>& idx, std::size_t begin,
                   std::size_t end, double& loss_sum);

  BnnNetwork* net_;
  TrainConfig cfg_;
  util::Rng rng_;
  // Adam state per layer.
  std::vector<Matrix> m_w_, v_w_;
  std::vector<std::vector<float>> m_b_, v_b_;
  // Summed batch gradients per layer; the Adam step resets them to zero.
  std::vector<Matrix> grad_w_;
  std::vector<std::vector<float>> grad_b_;
  std::uint64_t step_ = 0;
};

}  // namespace esam::nn
