#include "esam/nn/bnn.hpp"

#include "esam/util/crc32.hpp"
#include "esam/util/log.hpp"
#include "esam/util/simd.hpp"
#include "esam/util/table.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace esam::nn {
namespace {

/// Materializes the binarized weights of a layer as floats, for the
/// straight-through backward's Wb^T dz (the forward runs on PackedLayer).
Matrix binarize(const Matrix& latent) {
  Matrix wb(latent.rows(), latent.cols());
  const auto& src = latent.flat();
  auto& dst = wb.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = src[i] >= 0.0f ? 1.0f : -1.0f;
  }
  return wb;
}

std::size_t words_for(std::size_t n) { return (n + 63) / 64; }

/// Packs sign bits (bit set where v >= 0.0f, so -0.0f maps to +1 exactly
/// as sign_activation and binary_weight do) into words_for(n) words. The
/// compare-and-shift keeps the inner loop branch-free.
void pack_signs(const float* v, std::size_t n, std::uint64_t* out) {
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < len; ++b) {
      word |= static_cast<std::uint64_t>(v[base + b] >= 0.0f) << b;
    }
    out[base / 64] = word;
  }
}

/// Packs a {-1,+1} vector into words_for(x.size()) words (bit set for +1).
/// Throws std::invalid_argument on any other value, 0.0f and -0.0f
/// included: the packed forward is exact only for bipolar inputs.
void pack_bipolar(const std::vector<float>& x, std::uint64_t* out) {
  bool bad = false;
  for (std::size_t base = 0; base < x.size(); base += 64) {
    const std::size_t len = std::min<std::size_t>(64, x.size() - base);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < len; ++b) {
      const float v = x[base + b];
      word |= static_cast<std::uint64_t>(v == 1.0f) << b;
      bad |= (v != 1.0f) & (v != -1.0f);
    }
    out[base / 64] = word;
  }
  if (bad) {
    throw std::invalid_argument(
        "BNN forward: every input entry must be exactly -1 or +1");
  }
}

/// The one packed forward pass: hands each layer's preactivations z to
/// `visit(l, z)` and feeds hidden layers' sign(z) on as packed bits. Layer
/// 0's checked preactivate validates and packs `x`.
template <typename Visit>
void packed_forward(const std::vector<PackedLayer>& layers,
                    const std::vector<float>& x, Visit&& visit) {
  std::vector<float> z = layers.front().preactivate(x);
  visit(0, z);
  std::vector<std::uint64_t> bits;
  for (std::size_t l = 1; l < layers.size(); ++l) {
    bits.resize(layers[l].words());
    pack_signs(z.data(), z.size(), bits.data());
    z.resize(layers[l].out_features());
    layers[l].preactivate(bits.data(), z.data());
    visit(l, z);
  }
}

}  // namespace

float sign_activation(float x) { return x >= 0.0f ? 1.0f : -1.0f; }

BnnLayer::BnnLayer(std::size_t out, std::size_t in, util::Rng& rng) {
  latent = Matrix(out, in);
  bias.assign(out, 0.0f);
  // Small uniform init keeps early sign flips cheap (latent near zero).
  const float scale = 1.0f / std::sqrt(static_cast<float>(in));
  for (auto& w : latent.flat()) {
    w = static_cast<float>(rng.uniform(-scale, scale));
  }
}

float BnnLayer::binary_weight(std::size_t out, std::size_t in) const {
  return latent.at(out, in) >= 0.0f ? 1.0f : -1.0f;
}

PackedLayer::PackedLayer(const BnnLayer& layer)
    : in_(layer.in_features()),
      words_(words_for(layer.in_features())),
      bits_(layer.out_features() * words_for(layer.in_features())),
      ones_(layer.out_features()),
      bias_(layer.bias) {
  // Past 2^24 the float path's partial sums stop being exact integers, so
  // the two paths could differ.
  if (in_ == 0 || in_ >= (std::size_t{1} << 24) ||
      bias_.size() != layer.out_features()) {
    throw std::invalid_argument("PackedLayer: bad layer shape");
  }
  const util::simd::Kernels& k = util::simd::active();
  for (std::size_t j = 0; j < ones_.size(); ++j) {
    std::uint64_t* row = bits_.data() + j * words_;
    pack_signs(layer.latent.row_data(j), in_, row);
    ones_[j] = static_cast<std::int32_t>(k.count(row, words_));
  }
}

void PackedLayer::preactivate(const std::uint64_t* x, float* z) const {
  const util::simd::Kernels& k = util::simd::active();
  const auto n = static_cast<std::int32_t>(in_);
  const auto x_ones = static_cast<std::int32_t>(k.count(x, words_));
  for (std::size_t j = 0; j < bias_.size(); ++j) {
    const auto both = static_cast<std::int32_t>(
        k.and_count(bits_.data() + j * words_, x, words_));
    const std::int32_t mismatches = ones_[j] + x_ones - 2 * both;
    z[j] = static_cast<float>(n - 2 * mismatches) + bias_[j];
  }
}

std::vector<float> PackedLayer::preactivate(const std::vector<float>& x) const {
  if (x.size() != in_) {
    throw std::invalid_argument("PackedLayer: input width mismatch");
  }
  std::vector<std::uint64_t> bits(words_);
  pack_bipolar(x, bits.data());
  std::vector<float> z(out_features());
  preactivate(bits.data(), z.data());
  return z;
}

PackedBnn::PackedBnn(const BnnNetwork& net) {
  const auto& src = net.layers();
  if (src.empty()) throw std::invalid_argument("PackedBnn: empty network");
  layers_.reserve(src.size());
  for (std::size_t l = 0; l < src.size(); ++l) {
    if (l > 0 && src[l].in_features() != src[l - 1].out_features()) {
      throw std::invalid_argument("PackedBnn: layers do not chain");
    }
    layers_.emplace_back(src[l]);
  }
}

std::vector<float> PackedBnn::scores(const std::vector<float>& x) const {
  std::vector<float> out;
  packed_forward(layers_, x, [&](std::size_t l, const std::vector<float>& z) {
    if (l + 1 == layers_.size()) out = z;
  });
  return out;
}

std::size_t PackedBnn::predict(const std::vector<float>& x) const {
  const std::vector<float> s = scores(x);
  return static_cast<std::size_t>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

std::vector<std::vector<float>> PackedBnn::forward_trace(
    const std::vector<float>& x) const {
  std::vector<std::vector<float>> trace;
  trace.reserve(layers_.size() + 1);
  trace.push_back(x);
  packed_forward(layers_, x, [&](std::size_t l, const std::vector<float>& z) {
    trace.push_back(z);
    if (l + 1 < layers_.size()) {
      for (auto& v : trace.back()) v = sign_activation(v);
    }
  });
  return trace;
}

BnnNetwork::BnnNetwork(const std::vector<std::size_t>& shape, util::Rng& rng) {
  if (shape.size() < 2) {
    throw std::invalid_argument("BnnNetwork: shape needs >= 2 entries");
  }
  layers_.reserve(shape.size() - 1);
  for (std::size_t l = 0; l + 1 < shape.size(); ++l) {
    layers_.emplace_back(shape[l + 1], shape[l], rng);
  }
}

std::vector<std::size_t> BnnNetwork::shape() const {
  std::vector<std::size_t> s;
  if (layers_.empty()) return s;
  s.push_back(layers_.front().in_features());
  for (const auto& l : layers_) s.push_back(l.out_features());
  return s;
}

std::vector<float> BnnNetwork::scores(const std::vector<float>& x) const {
  return PackedBnn(*this).scores(x);
}

std::size_t BnnNetwork::predict(const std::vector<float>& x) const {
  return PackedBnn(*this).predict(x);
}

std::vector<std::vector<float>> BnnNetwork::forward_trace(
    const std::vector<float>& x) const {
  return PackedBnn(*this).forward_trace(x);
}

double BnnNetwork::accuracy(const std::vector<std::vector<float>>& xs,
                            const std::vector<std::uint8_t>& ys) const {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("BnnNetwork::accuracy: bad dataset");
  }
  const PackedBnn packed(*this);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (packed.predict(xs[i]) == ys[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(xs.size());
}

namespace {
// Model-cache container v2: {magic u64, payload_size u64, crc32 u32,
// reserved u32} followed by the payload {n_layers u64, per layer out/in u64
// pairs + latent + bias floats}. v1 had no checksum, so a torn write by a
// concurrent process passed the shape-only validation; v2 caches carry a
// CRC-32 over the whole payload and v1 files are rejected (one retrain
// rewrites them).
constexpr std::uint64_t kCacheMagicV2 = 0x45534d42'4e4e0002ULL;  // "ESMBNN" v2
// A damaged size field must not drive a huge allocation before the CRC runs.
constexpr std::uint64_t kMaxCachePayload = 1ULL << 32;
}  // namespace

bool BnnNetwork::save(const std::string& path) const {
  // Serialize into one buffer so the CRC covers everything after the header.
  std::vector<std::uint8_t> payload;
  const auto append = [&payload](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    payload.insert(payload.end(), b, b + n);
  };
  const std::uint64_t n_layers = layers_.size();
  append(&n_layers, sizeof n_layers);
  for (const auto& l : layers_) {
    const std::uint64_t out = l.out_features();
    const std::uint64_t in = l.in_features();
    append(&out, sizeof out);
    append(&in, sizeof in);
    append(l.latent.flat().data(), l.latent.size() * sizeof(float));
    append(l.bias.data(), l.bias.size() * sizeof(float));
  }

  // Write to a pid-unique sibling temp file and rename into place: rename
  // within one directory is atomic on POSIX, so concurrent readers (parallel
  // ctest smoke targets sharing the default cache path) observe either the
  // previous complete cache or the new one, never a torn mix.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    const std::uint64_t payload_size = payload.size();
    const std::uint32_t crc = util::crc32(payload.data(), payload.size());
    const std::uint32_t reserved = 0;
    f.write(reinterpret_cast<const char*>(&kCacheMagicV2),
            sizeof kCacheMagicV2);
    f.write(reinterpret_cast<const char*>(&payload_size), sizeof payload_size);
    f.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    f.write(reinterpret_cast<const char*>(&reserved), sizeof reserved);
    f.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    f.close();
    if (!f) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool BnnNetwork::load(const std::string& path, BnnNetwork& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::uint64_t magic = 0, payload_size = 0;
  std::uint32_t crc = 0, reserved = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof magic);
  f.read(reinterpret_cast<char*>(&payload_size), sizeof payload_size);
  f.read(reinterpret_cast<char*>(&crc), sizeof crc);
  f.read(reinterpret_cast<char*>(&reserved), sizeof reserved);
  if (!f || magic != kCacheMagicV2 || payload_size < sizeof(std::uint64_t) ||
      payload_size > kMaxCachePayload) {
    return false;
  }
  std::vector<std::uint8_t> payload(payload_size);
  f.read(reinterpret_cast<char*>(payload.data()),
         static_cast<std::streamsize>(payload.size()));
  if (!f || util::crc32(payload.data(), payload.size()) != crc) return false;

  // The CRC passed, so the payload is exactly what save() wrote; the bounds
  // checks below only guard against a cache written by a future format.
  std::size_t pos = 0;
  const auto take = [&payload, &pos](void* dst, std::size_t n) {
    if (n > payload.size() - pos) return false;
    std::memcpy(dst, payload.data() + pos, n);
    pos += n;
    return true;
  };
  std::uint64_t n_layers = 0;
  if (!take(&n_layers, sizeof n_layers) || n_layers == 0 || n_layers > 64) {
    return false;
  }
  BnnNetwork net;
  net.layers_.resize(n_layers);
  for (auto& l : net.layers_) {
    std::uint64_t o = 0, i = 0;
    if (!take(&o, sizeof o) || !take(&i, sizeof i)) return false;
    if (o == 0 || i == 0 || o > (1u << 20) || i > (1u << 20)) return false;
    l.latent = Matrix(o, i);
    l.bias.assign(o, 0.0f);
    if (!take(l.latent.flat().data(), l.latent.size() * sizeof(float)) ||
        !take(l.bias.data(), l.bias.size() * sizeof(float))) {
      return false;
    }
  }
  if (pos != payload.size()) return false;
  out = std::move(net);
  return true;
}

BnnTrainer::BnnTrainer(BnnNetwork& net, TrainConfig cfg)
    : net_(&net), cfg_(cfg), rng_(cfg.seed) {
  for (const auto& l : net.layers()) {
    m_w_.emplace_back(l.out_features(), l.in_features());
    v_w_.emplace_back(l.out_features(), l.in_features());
    m_b_.emplace_back(l.out_features(), 0.0f);
    v_b_.emplace_back(l.out_features(), 0.0f);
  }
}

void BnnTrainer::train_batch(const std::vector<std::vector<float>>& xs,
                             const std::vector<std::uint8_t>& ys,
                             const std::vector<std::size_t>& idx,
                             std::size_t begin, std::size_t end,
                             double& loss_sum) {
  auto& layers = net_->layers();
  const std::size_t n_layers = layers.size();

  // One packed snapshot for the batch's forward passes. The float copies of
  // sign(latent) serve only the straight-through backward's Wb^T dz, which
  // layer 0 never needs.
  const PackedBnn packed(*net_);
  std::vector<Matrix> wb(n_layers);
  for (std::size_t l = 1; l < n_layers; ++l) {
    wb[l] = binarize(layers[l].latent);
  }

  std::vector<Matrix> grad_w;
  std::vector<std::vector<float>> grad_b;
  for (const auto& l : layers) {
    grad_w.emplace_back(l.out_features(), l.in_features());
    grad_b.emplace_back(l.out_features(), 0.0f);
  }

  // Per-layer inputs a (x, then the sign activations) and pre-activations
  // z, reused across samples.
  std::vector<std::vector<float>> a(n_layers);
  std::vector<std::vector<float>> z(n_layers);
  for (std::size_t s = begin; s < end; ++s) {
    const auto& x = xs[idx[s]];
    const std::uint8_t label = ys[idx[s]];

    a[0] = x;
    packed_forward(packed.layers(), x,
                   [&](std::size_t l, const std::vector<float>& zl) {
                     z[l] = zl;
                     if (l + 1 == n_layers) return;
                     a[l + 1].resize(zl.size());
                     std::transform(zl.begin(), zl.end(), a[l + 1].begin(),
                                    sign_activation);
                   });

    // Softmax cross-entropy on the last pre-activations. Binary-weight
    // logits are integer-scaled sums with magnitudes ~ fan-in, which would
    // saturate the softmax; a temperature of sqrt(fan_in) restores useful
    // gradients without changing the argmax (deployment uses raw scores).
    std::vector<float>& logits = z[n_layers - 1];
    const float temp =
        std::sqrt(static_cast<float>(layers.back().in_features()));
    const float zmax = *std::max_element(logits.begin(), logits.end());
    double denom = 0.0;
    for (float v : logits) {
      denom += std::exp(static_cast<double>((v - zmax) / temp));
    }
    const double logp =
        static_cast<double>((logits[label] - zmax) / temp) - std::log(denom);
    loss_sum += -logp;

    std::vector<float> dz(logits.size());
    for (std::size_t j = 0; j < logits.size(); ++j) {
      const double p =
          std::exp(static_cast<double>((logits[j] - zmax) / temp)) / denom;
      dz[j] = static_cast<float>(p) - (j == label ? 1.0f : 0.0f);
    }

    // Backward with STE through the sign activations. The STE window scales
    // with sqrt(fan_in), the natural magnitude of the +-1-weighted sums
    // (a +-1 window would zero nearly all hidden gradients).
    for (std::size_t l = n_layers; l-- > 0;) {
      grad_w[l].add_outer(1.0f, dz, a[l]);
      for (std::size_t j = 0; j < dz.size(); ++j) grad_b[l][j] += dz[j];
      if (l == 0) break;
      std::vector<float> da = wb[l].multiply_transposed(dz);
      const float ste_clip =
          std::sqrt(static_cast<float>(layers[l - 1].in_features()));
      dz.assign(da.size(), 0.0f);
      for (std::size_t j = 0; j < da.size(); ++j) {
        dz[j] = std::fabs(z[l - 1][j]) <= ste_clip ? da[j] : 0.0f;
      }
    }
  }

  // Adam step on the latent weights and biases; clip latents to [-1, 1].
  ++step_;
  const float b1 = cfg_.adam_beta1;
  const float b2 = cfg_.adam_beta2;
  const float bc1 = 1.0f - std::pow(b1, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(b2, static_cast<float>(step_));
  const float inv_batch = 1.0f / static_cast<float>(end - begin);
  for (std::size_t l = 0; l < n_layers; ++l) {
    auto& lat = layers[l].latent.flat();
    auto& g = grad_w[l].flat();
    auto& m = m_w_[l].flat();
    auto& v = v_w_[l].flat();
    for (std::size_t i = 0; i < lat.size(); ++i) {
      const float gi = g[i] * inv_batch;
      m[i] = b1 * m[i] + (1.0f - b1) * gi;
      v[i] = b2 * v[i] + (1.0f - b2) * gi * gi;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      lat[i] -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.adam_eps);
      lat[i] = std::clamp(lat[i], -1.0f, 1.0f);
    }
    auto& bias = layers[l].bias;
    for (std::size_t j = 0; j < bias.size(); ++j) {
      const float gj = grad_b[l][j] * inv_batch;
      m_b_[l][j] = b1 * m_b_[l][j] + (1.0f - b1) * gj;
      v_b_[l][j] = b2 * v_b_[l][j] + (1.0f - b2) * gj * gj;
      const float mhat = m_b_[l][j] / bc1;
      const float vhat = v_b_[l][j] / bc2;
      bias[j] -= cfg_.learning_rate * mhat / (std::sqrt(vhat) + cfg_.adam_eps);
    }
  }
}

double BnnTrainer::train_epoch(const std::vector<std::vector<float>>& xs,
                               const std::vector<std::uint8_t>& ys) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("BnnTrainer: bad dataset");
  }
  std::vector<std::size_t> idx(xs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng_.shuffle(idx);

  double loss_sum = 0.0;
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < idx.size(); begin += cfg_.batch_size) {
    const std::size_t end = std::min(begin + cfg_.batch_size, idx.size());
    train_batch(xs, ys, idx, begin, end, loss_sum);
    ++batches;
    if (cfg_.log_every != 0 && batches % cfg_.log_every == 0) {
      util::emit_log(
          cfg_.log_sink, cfg_.log_ctx,
          util::fmt("  batch %zu/%zu  mean loss %.4f", batches,
                    (idx.size() + cfg_.batch_size - 1) / cfg_.batch_size,
                    loss_sum / static_cast<double>(end)));
    }
  }
  return loss_sum / static_cast<double>(xs.size());
}

double BnnTrainer::fit(const std::vector<std::vector<float>>& xs,
                       const std::vector<std::uint8_t>& ys) {
  double loss = 0.0;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    loss = train_epoch(xs, ys);
    if (cfg_.log_every != 0) {
      util::emit_log(cfg_.log_sink, cfg_.log_ctx,
                     util::fmt("epoch %zu/%zu  loss %.4f", e + 1,
                               cfg_.epochs, loss));
    }
  }
  return loss;
}

}  // namespace esam::nn
