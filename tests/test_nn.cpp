// Tests for the matrix library and BNN training substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "esam/nn/bnn.hpp"
#include "esam/nn/matrix.hpp"

namespace esam::nn {
namespace {

TEST(Matrix, MultiplyVector) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1 0 -1]^T = [-2, -2]
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.flat().begin());
  const std::vector<float> y = m.multiply({1.0f, 0.0f, -1.0f});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], -2.0f);
  EXPECT_FLOAT_EQ(y[1], -2.0f);
}

TEST(Matrix, MultiplyTransposed) {
  Matrix m(2, 3);
  float vals[] = {1, 2, 3, 4, 5, 6};
  std::copy(std::begin(vals), std::end(vals), m.flat().begin());
  // m^T * [1, -1]^T = [-3, -3, -3]
  const std::vector<float> y = m.multiply_transposed({1.0f, -1.0f});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], -3.0f);
  EXPECT_FLOAT_EQ(y[2], -3.0f);
}

TEST(Matrix, DimensionMismatchThrows) {
  Matrix m(2, 3);
  EXPECT_THROW((void)m.multiply({1.0f, 2.0f}), std::invalid_argument);
  EXPECT_THROW((void)m.multiply_transposed({1.0f, 2.0f, 3.0f}),
               std::invalid_argument);
  EXPECT_THROW(m.add_outer(1.0f, {1.0f}, {1.0f, 2.0f, 3.0f}),
               std::invalid_argument);
}

TEST(Matrix, AddOuter) {
  Matrix m(2, 2, 1.0f);
  m.add_outer(0.5f, {2.0f, 0.0f}, {1.0f, 3.0f});
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);   // 1 + 0.5*2*1
  EXPECT_FLOAT_EQ(m.at(0, 1), 4.0f);   // 1 + 0.5*2*3
  EXPECT_FLOAT_EQ(m.at(1, 0), 1.0f);   // untouched (a[1] == 0)
}

TEST(Matrix, Apply) {
  Matrix m(1, 3, -2.0f);
  m.apply([](float v) { return v * v; });
  EXPECT_FLOAT_EQ(m.at(0, 2), 4.0f);
}

TEST(Bnn, SignActivationConvention) {
  EXPECT_FLOAT_EQ(sign_activation(0.0f), 1.0f);  // sign(0) := +1
  EXPECT_FLOAT_EQ(sign_activation(-0.1f), -1.0f);
  EXPECT_FLOAT_EQ(sign_activation(3.0f), 1.0f);
}

TEST(Bnn, NetworkShape) {
  util::Rng rng(1);
  const BnnNetwork net({768, 256, 256, 256, 10}, rng);
  EXPECT_EQ(net.layers().size(), 4u);
  EXPECT_EQ(net.shape(), (std::vector<std::size_t>{768, 256, 256, 256, 10}));
  EXPECT_THROW(BnnNetwork({5}, rng), std::invalid_argument);
}

TEST(Bnn, BinaryWeightsAreSigns) {
  util::Rng rng(2);
  BnnNetwork net({4, 3}, rng);
  BnnLayer& l = net.layers()[0];
  l.latent.at(0, 0) = 0.7f;
  l.latent.at(0, 1) = -0.7f;
  l.latent.at(0, 2) = 0.0f;
  EXPECT_FLOAT_EQ(l.binary_weight(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(l.binary_weight(0, 1), -1.0f);
  EXPECT_FLOAT_EQ(l.binary_weight(0, 2), 1.0f);  // sign(0) := +1
}

TEST(Bnn, ScoresUseBinarizedWeightsAndBias) {
  util::Rng rng(3);
  BnnNetwork net({2, 1}, rng);
  BnnLayer& l = net.layers()[0];
  l.latent.at(0, 0) = 0.9f;   // -> +1
  l.latent.at(0, 1) = -0.2f;  // -> -1
  l.bias[0] = 0.25f;
  const std::vector<float> s = net.scores({1.0f, 1.0f});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_FLOAT_EQ(s[0], 1.0f - 1.0f + 0.25f);
}

TEST(Bnn, ForwardTraceShapes) {
  util::Rng rng(4);
  const BnnNetwork net({6, 5, 3}, rng);
  const auto trace = net.forward_trace(std::vector<float>(6, 1.0f));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].size(), 6u);
  EXPECT_EQ(trace[1].size(), 5u);
  EXPECT_EQ(trace[2].size(), 3u);
  // Hidden activations are bipolar.
  for (float v : trace[1]) EXPECT_TRUE(v == 1.0f || v == -1.0f);
}

TEST(Bnn, TrainerLearnsLinearlySeparableToy) {
  // Two classes keyed by the sign of the first two inputs; a BNN should nail
  // this quickly.
  util::Rng rng(5);
  BnnNetwork net({16, 32, 2}, rng);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  util::Rng data_rng(6);
  for (int i = 0; i < 600; ++i) {
    std::vector<float> x(16);
    for (auto& v : x) v = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const std::uint8_t label = (x[0] + x[1] > 0.0f) ? 1 : 0;
    xs.push_back(std::move(x));
    ys.push_back(label);
  }
  TrainConfig cfg;
  cfg.epochs = 30;
  cfg.batch_size = 32;
  cfg.seed = 7;
  BnnTrainer trainer(net, cfg);
  const double final_loss = trainer.fit(xs, ys);
  EXPECT_LT(final_loss, 0.45);
  EXPECT_GT(net.accuracy(xs, ys), 0.90);
}

TEST(Bnn, TrainEpochLowersLossOnAverage) {
  util::Rng rng(8);
  BnnNetwork net({12, 24, 3}, rng);
  std::vector<std::vector<float>> xs;
  std::vector<std::uint8_t> ys;
  util::Rng data_rng(9);
  for (int i = 0; i < 300; ++i) {
    std::vector<float> x(12);
    for (auto& v : x) v = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
    const auto label = static_cast<std::uint8_t>((x[0] > 0) + (x[1] > 0));
    xs.push_back(std::move(x));
    ys.push_back(label);
  }
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.seed = 10;
  BnnTrainer trainer(net, cfg);
  const double first = trainer.train_epoch(xs, ys);
  double last = first;
  for (int e = 0; e < 14; ++e) last = trainer.train_epoch(xs, ys);
  EXPECT_LT(last, first);
}

TEST(Bnn, LatentWeightsStayClipped) {
  util::Rng rng(11);
  BnnNetwork net({8, 4}, rng);
  std::vector<std::vector<float>> xs(64, std::vector<float>(8, 1.0f));
  std::vector<std::uint8_t> ys(64, 1);
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.learning_rate = 0.5f;  // aggressive on purpose
  BnnTrainer trainer(net, cfg);
  trainer.fit(xs, ys);
  for (const auto& l : net.layers()) {
    for (float w : l.latent.flat()) {
      EXPECT_LE(std::fabs(w), 1.0f);
    }
  }
}

TEST(Bnn, ZeroBatchSizeThrows) {
  // A zero batch would never advance train_epoch and would divide by zero.
  util::Rng rng(13);
  BnnNetwork net({4, 2}, rng);
  TrainConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(BnnTrainer(net, cfg), std::invalid_argument);
  BnnNetwork empty;
  EXPECT_THROW(BnnTrainer(empty, TrainConfig{}), std::invalid_argument);
}

TEST(Bnn, OutOfRangeLabelThrows) {
  // The loss reads scores[label]; a label past the output layer used to
  // read out of bounds.
  util::Rng rng(14);
  BnnNetwork net({4, 2}, rng);
  const BnnNetwork before = net;
  const std::vector<std::vector<float>> xs(3, {1.0f, -1.0f, 1.0f, -1.0f});
  BnnTrainer trainer(net, TrainConfig{});
  EXPECT_THROW((void)trainer.train_epoch(xs, {0, 1, 2}),
               std::invalid_argument);
  EXPECT_EQ(net.layers()[0].latent.flat(), before.layers()[0].latent.flat());
  EXPECT_NO_THROW((void)trainer.train_epoch(xs, {0, 1, 1}));
}

TEST(Bnn, SaveLoadRoundTrip) {
  util::Rng rng(12);
  BnnNetwork net({10, 7, 4}, rng);
  net.layers()[0].bias[3] = 0.625f;
  const std::string path = ::testing::TempDir() + "/bnn_roundtrip.bin";
  ASSERT_TRUE(net.save(path));
  BnnNetwork loaded;
  ASSERT_TRUE(BnnNetwork::load(path, loaded));
  ASSERT_EQ(loaded.shape(), net.shape());
  EXPECT_FLOAT_EQ(loaded.layers()[0].bias[3], 0.625f);
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(loaded.layers()[l].latent.flat(), net.layers()[l].latent.flat());
  }
  // Same predictions after reload.
  std::vector<float> x(10);
  for (std::size_t i = 0; i < 10; ++i) x[i] = (i % 2 != 0) ? 1.0f : -1.0f;
  EXPECT_EQ(loaded.predict(x), net.predict(x));
}

TEST(Bnn, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/bnn_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a model", f);
    std::fclose(f);
  }
  BnnNetwork out;
  EXPECT_FALSE(BnnNetwork::load(path, out));
  EXPECT_FALSE(BnnNetwork::load("/nonexistent/path.bin", out));
}

TEST(Bnn, AccuracyValidatesInput) {
  util::Rng rng(13);
  const BnnNetwork net({4, 2}, rng);
  EXPECT_THROW((void)net.accuracy({}, {}), std::invalid_argument);
  EXPECT_THROW((void)net.accuracy({{1, 1, 1, 1}}, {0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace esam::nn
