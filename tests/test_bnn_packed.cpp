// Differential tests for the packed-bit BNN forward (nn::PackedLayer /
// nn::PackedBnn) against the float path it replaced: sign(latent) as a float
// Matrix, Matrix::multiply, then the bias add. The two must agree bit for bit
// (memcmp, not a tolerance) on every in-width around the 64-bit word
// boundary, on latents of exactly 0.0f and -0.0f, and under every available
// util::simd backend. CRCs of the weights after short fixed training runs
// pin the trainer (packed forward, batch-ordered backward) on every backend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "esam/data/dataset.hpp"
#include "esam/nn/bnn.hpp"
#include "esam/nn/matrix.hpp"
#include "esam/util/crc32.hpp"
#include "esam/util/rng.hpp"
#include "esam/util/simd.hpp"

namespace esam::nn {
namespace {

namespace simd = util::simd;

/// The float oracle: Wb x + b with Wb = sign(latent) materialized as floats.
std::vector<float> float_preactivate(const BnnLayer& layer,
                                     const std::vector<float>& x) {
  Matrix wb(layer.out_features(), layer.in_features());
  for (std::size_t i = 0; i < wb.size(); ++i) {
    wb.flat()[i] = layer.latent.flat()[i] >= 0.0f ? 1.0f : -1.0f;
  }
  std::vector<float> z = wb.multiply(x);
  for (std::size_t j = 0; j < z.size(); ++j) z[j] += layer.bias[j];
  return z;
}

/// Float-oracle forward trace: x, sign(z) per hidden layer, final scores.
std::vector<std::vector<float>> float_trace(const BnnNetwork& net,
                                            const std::vector<float>& x) {
  std::vector<std::vector<float>> trace{x};
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    std::vector<float> z = float_preactivate(net.layers()[l], trace.back());
    if (l + 1 < net.layers().size()) {
      for (auto& v : z) v = sign_activation(v);
    }
    trace.push_back(std::move(z));
  }
  return trace;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> random_bipolar(std::size_t n, util::Rng& rng) {
  std::vector<float> x(n);
  for (auto& v : x) v = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return x;
}

/// A layer whose latents include exact zeros of both signs and whose biases
/// include -0.0f, halves and values that force a rounding in the bias add.
BnnLayer edge_layer(std::size_t out, std::size_t in, util::Rng& rng) {
  BnnLayer layer(out, in, rng);
  auto& w = layer.latent.flat();
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i % 7 == 0) w[i] = 0.0f;
    if (i % 11 == 0) w[i] = -0.0f;
  }
  for (std::size_t j = 0; j < out; ++j) {
    switch (j % 4) {
      case 0:
        layer.bias[j] = -0.0f;
        break;
      case 1:
        layer.bias[j] = 0.5f;
        break;
      case 2:
        layer.bias[j] = static_cast<float>(rng.uniform(-40.0, 40.0));
        break;
      default:
        layer.bias[j] = 1e-7f;
        break;
    }
  }
  return layer;
}

std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out;
  for (simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::available(b)) out.push_back(b);
  }
  return out;
}

/// Restores the process-wide SIMD backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : saved_(simd::active_backend()) {}
  ~BackendGuard() { simd::set_active_backend(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  simd::Backend saved_;
};

TEST(BnnPacked, PreactivateMatchesFloatOracleBitForBit) {
  const BackendGuard guard;
  for (const std::size_t in : {1u, 63u, 64u, 65u, 768u}) {
    util::Rng rng(1000 + in);
    const BnnLayer layer = edge_layer(37, in, rng);
    std::vector<std::vector<float>> inputs = {
        std::vector<float>(in, 1.0f), std::vector<float>(in, -1.0f)};
    for (int t = 0; t < 6; ++t) inputs.push_back(random_bipolar(in, rng));

    for (const simd::Backend b : available_backends()) {
      ASSERT_TRUE(simd::set_active_backend(b));
      const PackedLayer packed(layer);
      ASSERT_EQ(packed.words(), (in + 63) / 64);
      for (std::size_t t = 0; t < inputs.size(); ++t) {
        EXPECT_TRUE(same_bits(packed.preactivate(inputs[t]),
                              float_preactivate(layer, inputs[t])))
            << "in " << in << " backend " << simd::backend_name(b)
            << " input " << t;
      }
    }
  }
}

TEST(BnnPacked, SignedZeroLatentsBinarizeToPlusOne) {
  util::Rng rng(1);
  BnnNetwork net({3, 1}, rng);
  BnnLayer& l = net.layers()[0];
  l.latent.at(0, 0) = 0.0f;
  l.latent.at(0, 1) = -0.0f;
  l.latent.at(0, 2) = -0.25f;
  l.bias[0] = 0.0f;
  // Weights (+1, +1, -1): an all-ones input scores 1, not -1 or -3.
  const std::vector<float> z =
      PackedLayer(l).preactivate(std::vector<float>{1.0f, 1.0f, 1.0f});
  ASSERT_EQ(z.size(), 1u);
  EXPECT_EQ(z[0], 1.0f);
  EXPECT_TRUE(same_bits(z, float_preactivate(l, {1.0f, 1.0f, 1.0f})));
}

TEST(BnnPacked, NetworkForwardMatchesFloatOracle) {
  const BackendGuard guard;
  util::Rng rng(7);
  BnnNetwork net({130, 65, 64, 10}, rng);
  for (auto& l : net.layers()) {
    for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-6.0, 6.0));
    l.latent.flat()[3] = -0.0f;
  }
  for (const simd::Backend b : available_backends()) {
    ASSERT_TRUE(simd::set_active_backend(b));
    const PackedBnn packed(net);
    for (int t = 0; t < 16; ++t) {
      const std::vector<float> x = random_bipolar(130, rng);
      const auto want = float_trace(net, x);
      const auto got = packed.forward_trace(x);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t l = 0; l < want.size(); ++l) {
        EXPECT_TRUE(same_bits(got[l], want[l]))
            << "backend " << simd::backend_name(b) << " layer " << l;
      }
      EXPECT_TRUE(same_bits(net.scores(x), want.back()));
      EXPECT_TRUE(same_bits(packed.scores(x), want.back()));
      EXPECT_EQ(net.predict(x), packed.predict(x));
    }
  }
}

TEST(BnnPacked, NonBipolarInputThrows) {
  util::Rng rng(3);
  const BnnNetwork net({4, 3, 2}, rng);
  const PackedLayer layer(net.layers()[0]);
  for (const float bad : {0.0f, -0.0f, 0.5f, 2.0f, -1.0000001f,
                          std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    const std::vector<float> x = {1.0f, -1.0f, bad, 1.0f};
    EXPECT_THROW((void)layer.preactivate(x), std::invalid_argument) << bad;
    EXPECT_THROW((void)net.scores(x), std::invalid_argument) << bad;
    EXPECT_THROW((void)net.forward_trace(x), std::invalid_argument) << bad;
    EXPECT_THROW((void)net.accuracy({x}, {0}), std::invalid_argument) << bad;
  }
  // Width mismatches are rejected too, as Matrix::multiply did.
  EXPECT_THROW((void)layer.preactivate({1.0f, 1.0f}), std::invalid_argument);
  EXPECT_THROW((void)net.predict({1.0f, 1.0f, 1.0f, 1.0f, 1.0f}),
               std::invalid_argument);
}

TEST(BnnPacked, SnapshotDoesNotFollowLaterEdits) {
  util::Rng rng(5);
  BnnNetwork net({2, 1}, rng);
  BnnLayer& l = net.layers()[0];
  l.latent.at(0, 0) = 0.5f;
  l.latent.at(0, 1) = 0.5f;
  l.bias[0] = 0.0f;
  const PackedBnn before(net);
  const std::vector<float> x = {1.0f, 1.0f};
  EXPECT_EQ(before.scores(x)[0], 2.0f);

  l.latent.at(0, 1) = -0.5f;
  l.bias[0] = 0.25f;
  EXPECT_EQ(before.scores(x)[0], 2.0f);  // the snapshot is frozen
  EXPECT_EQ(net.scores(x)[0], 0.25f);    // the network re-packs per call
  EXPECT_EQ(PackedBnn(net).scores(x)[0], 0.25f);
}

std::uint32_t weights_crc(const BnnNetwork& net) {
  std::vector<std::uint8_t> bytes;
  for (const BnnLayer& l : net.layers()) {
    const auto* w =
        reinterpret_cast<const std::uint8_t*>(l.latent.flat().data());
    bytes.insert(bytes.end(), w, w + l.latent.size() * sizeof(float));
    const auto* b = reinterpret_cast<const std::uint8_t*>(l.bias.data());
    bytes.insert(bytes.end(), b, b + l.bias.size() * sizeof(float));
  }
  return util::crc32(bytes.data(), bytes.size());
}

/// Trains a fresh network of `shape` on `n` synthetic digits for one epoch
/// under backend `b` and returns the CRC of every latent weight and bias.
std::uint32_t pinned_fit(simd::Backend b, std::size_t n, std::uint64_t seed,
                         const std::vector<std::size_t>& shape,
                         std::size_t batch_size) {
  EXPECT_TRUE(simd::set_active_backend(b));
  const data::PreparedDataset d =
      data::prepare(data::generate_synthetic_digits(n, seed), "synthetic");
  util::Rng rng(seed + 1);
  BnnNetwork net(shape, rng);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = batch_size;
  cfg.seed = seed + 2;
  BnnTrainer trainer(net, cfg);
  (void)trainer.fit(d.bipolar, d.labels);
  return weights_crc(net);
}

// Pin every latent weight and bias after short fixed training runs, under
// every SIMD backend. Both CRCs were recorded with the per-sample float
// backward (Matrix::add_outer / Matrix::multiply_transposed), the first
// also with the float forward. The batch-ordered backward sums every
// gradient element over the same terms in the same order, so any change in
// a forward pre-activation, a gradient or an Adam step changes these CRCs.
TEST(BnnPacked, TrainingRunIsPinned) {
  const BackendGuard guard;
  for (const simd::Backend b : available_backends()) {
    EXPECT_EQ(pinned_fit(b, 200, 1401, {768, 64, 10}, 32), 0xdccc93aau)
        << simd::backend_name(b);
  }
}

// Four layers, two hidden layers with input gradients, and a ragged last
// batch (300 = 4 x 64 + 44).
TEST(BnnPacked, FourLayerTrainingRunIsPinned) {
  const BackendGuard guard;
  for (const simd::Backend b : available_backends()) {
    EXPECT_EQ(pinned_fit(b, 300, 1501, {768, 256, 256, 10}, 64), 0x4d72e275u)
        << simd::backend_name(b);
  }
}

}  // namespace
}  // namespace esam::nn
