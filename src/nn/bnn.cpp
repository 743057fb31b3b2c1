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
/// `visit(l, z)` and feeds hidden layers' sign(z) on as packed bits (set
/// where z >= 0.0f, so -0.0f maps to +1 exactly as sign_activation does).
/// Layer 0's checked preactivate validates and packs `x`.
template <typename Visit>
void packed_forward(const std::vector<PackedLayer>& layers,
                    const std::vector<float>& x, Visit&& visit) {
  const util::simd::Kernels& k = util::simd::active();
  std::vector<float> z = layers.front().preactivate(x);
  visit(0, z);
  std::vector<std::uint64_t> bits;
  for (std::size_t l = 1; l < layers.size(); ++l) {
    bits.resize(layers[l].words());
    k.pack_signs_f32(z.data(), z.size(), bits.data());
    z.resize(layers[l].out_features());
    layers[l].preactivate(bits.data(), z.data());
    visit(l, z);
  }
}

/// Adam hyper-parameters and per-step bias corrections, hoisted out of the
/// parameter loop.
struct AdamStep {
  float b1, b2, bc1, bc2, lr, eps, inv_batch;
};

/// One Adam step over `n` parameters `w` that consumes the summed batch
/// gradient `g`: each entry is scaled by inv_batch, read once and reset to
/// +0 for the next batch. With raw pointers, the constants passed by value
/// (no store through `w` can alias them) and -fno-math-errno (so std::sqrt
/// is one instruction) the loop vectorizes; every element still sees the
/// same IEEE operations in the same order. `clip` clamps the updated
/// weights to [-1, 1] (latents, not biases).
void adam_step(float* w, float* g, float* m, float* v, std::size_t n,
               AdamStep c, bool clip) {
  for (std::size_t i = 0; i < n; ++i) {
    const float gi = g[i] * c.inv_batch;
    g[i] = 0.0f;
    m[i] = c.b1 * m[i] + (1.0f - c.b1) * gi;
    v[i] = c.b2 * v[i] + (1.0f - c.b2) * gi * gi;
    const float mhat = m[i] / c.bc1;
    const float vhat = v[i] / c.bc2;
    const float wi = w[i] - c.lr * mhat / (std::sqrt(vhat) + c.eps);
    w[i] = clip ? std::clamp(wi, -1.0f, 1.0f) : wi;
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
    k.pack_signs_f32(layer.latent.row_data(j), in_, row);
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
  if (cfg_.batch_size == 0) {
    throw std::invalid_argument("BnnTrainer: batch_size must be >= 1");
  }
  if (net.layers().empty()) {
    throw std::invalid_argument("BnnTrainer: empty network");
  }
  for (const auto& l : net.layers()) {
    m_w_.emplace_back(l.out_features(), l.in_features());
    v_w_.emplace_back(l.out_features(), l.in_features());
    m_b_.emplace_back(l.out_features(), 0.0f);
    v_b_.emplace_back(l.out_features(), 0.0f);
    grad_w_.emplace_back(l.out_features(), l.in_features());
    grad_b_.emplace_back(l.out_features(), 0.0f);
  }
}

void BnnTrainer::train_batch(const std::vector<std::vector<float>>& xs,
                             const std::vector<std::uint8_t>& ys,
                             const std::vector<std::size_t>& idx,
                             std::size_t begin, std::size_t end,
                             double& loss_sum) {
  auto& layers = net_->layers();
  const std::size_t n_layers = layers.size();
  const std::size_t batch = end - begin;
  const util::simd::Kernels& k = util::simd::active();

  // One packed snapshot for the batch's forward passes. The float copies of
  // sign(latent) serve only the straight-through backward's Wb^T dz, which
  // layer 0 never needs.
  const PackedBnn packed(*net_);
  std::vector<Matrix> wb(n_layers);
  for (std::size_t l = 1; l < n_layers; ++l) {
    wb[l] = binarize(layers[l].latent);
  }

  // Forward, sample by sample. Row s of z[l] (batch x out) holds sample s's
  // pre-activations; row s of act[l] (batch x in, l >= 1) its sign
  // activations, layer l's input. Layer 0's input rows are the xs entries.
  std::vector<std::vector<float>> z(n_layers);
  std::vector<std::vector<float>> act(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    z[l].resize(batch * layers[l].out_features());
    if (l > 0) act[l].resize(batch * layers[l].in_features());
  }
  const auto input_row = [&](std::size_t l, std::size_t s) -> const float* {
    return l == 0 ? xs[idx[begin + s]].data()
                  : act[l].data() + s * layers[l].in_features();
  };
  for (std::size_t s = 0; s < batch; ++s) {
    packed_forward(packed.layers(), xs[idx[begin + s]],
                   [&](std::size_t l, const std::vector<float>& zl) {
                     std::copy(zl.begin(), zl.end(),
                               z[l].begin() + s * zl.size());
                     if (l + 1 == n_layers) return;
                     std::transform(zl.begin(), zl.end(),
                                    act[l + 1].begin() + s * zl.size(),
                                    sign_activation);
                   });
  }

  // Softmax cross-entropy on the last pre-activations, in sample order so
  // loss_sum adds the same terms in the same order. Binary-weight logits
  // are integer-scaled sums with magnitudes ~ fan-in, which would saturate
  // the softmax; a temperature of sqrt(fan_in) restores useful gradients
  // without changing the argmax (deployment uses raw scores).
  const std::size_t n_out = layers.back().out_features();
  const float temp =
      std::sqrt(static_cast<float>(layers.back().in_features()));
  std::vector<float> dz(batch * n_out);
  for (std::size_t s = 0; s < batch; ++s) {
    const float* logits = z.back().data() + s * n_out;
    const std::uint8_t label = ys[idx[begin + s]];
    const float zmax = *std::max_element(logits, logits + n_out);
    double denom = 0.0;
    for (std::size_t j = 0; j < n_out; ++j) {
      denom += std::exp(static_cast<double>((logits[j] - zmax) / temp));
    }
    const double logp =
        static_cast<double>((logits[label] - zmax) / temp) - std::log(denom);
    loss_sum += -logp;
    for (std::size_t j = 0; j < n_out; ++j) {
      const double p =
          std::exp(static_cast<double>((logits[j] - zmax) / temp)) / denom;
      dz[s * n_out + j] = static_cast<float>(p) - (j == label ? 1.0f : 0.0f);
    }
  }

  // Backward with STE through the sign activations, one layer at a time
  // over the whole batch. Every product is dz * (+-1), exact, and every
  // gradient element sums its terms in sample order (input gradients: in
  // row order), as the per-sample outer products did. Skipping dz == 0
  // changes nothing: accumulators start at +0 and never become -0.
  for (std::size_t l = n_layers; l-- > 0;) {
    const std::size_t out = layers[l].out_features();
    const std::size_t in = layers[l].in_features();
    // Row j of the weight gradient stays in L1 while every sample adds
    // dz[s][j] * a[s] to it.
    for (std::size_t j = 0; j < out; ++j) {
      float* g = grad_w_[l].row_data(j);
      float gb = grad_b_[l][j];
      for (std::size_t s = 0; s < batch; ++s) {
        const float d = dz[s * out + j];
        gb += d;
        if (d != 0.0f) k.axpy_f32(g, d, input_row(l, s), in);
      }
      grad_b_[l][j] = gb;
    }
    if (l == 0) break;

    // dA[s] = Wb^T dz[s], masked by the STE window, is layer l-1's dz. The
    // window scales with sqrt(fan_in), the natural magnitude of the
    // +-1-weighted sums (a +-1 window would zero nearly all hidden
    // gradients).
    const float ste_clip =
        std::sqrt(static_cast<float>(layers[l - 1].in_features()));
    std::vector<float> da(batch * in, 0.0f);
    for (std::size_t s = 0; s < batch; ++s) {
      float* das = da.data() + s * in;
      const float* dzs = dz.data() + s * out;
      for (std::size_t r = 0; r < out; ++r) {
        if (dzs[r] != 0.0f) k.axpy_f32(das, dzs[r], wb[l].row_data(r), in);
      }
      const float* zs = z[l - 1].data() + s * in;
      for (std::size_t j = 0; j < in; ++j) {
        das[j] = std::fabs(zs[j]) <= ste_clip ? das[j] : 0.0f;
      }
    }
    dz = std::move(da);
  }

  // Adam step on the latent weights (clipped to [-1, 1]) and biases; it
  // also zeroes the gradients for the next batch.
  ++step_;
  const auto t = static_cast<float>(step_);
  const AdamStep c{.b1 = cfg_.adam_beta1,
                   .b2 = cfg_.adam_beta2,
                   .bc1 = 1.0f - std::pow(cfg_.adam_beta1, t),
                   .bc2 = 1.0f - std::pow(cfg_.adam_beta2, t),
                   .lr = cfg_.learning_rate,
                   .eps = cfg_.adam_eps,
                   .inv_batch = 1.0f / static_cast<float>(batch)};
  for (std::size_t l = 0; l < n_layers; ++l) {
    adam_step(layers[l].latent.flat().data(), grad_w_[l].flat().data(),
              m_w_[l].flat().data(), v_w_[l].flat().data(),
              layers[l].latent.size(), c, /*clip=*/true);
    adam_step(layers[l].bias.data(), grad_b_[l].data(), m_b_[l].data(),
              v_b_[l].data(), layers[l].bias.size(), c, /*clip=*/false);
  }
}

double BnnTrainer::train_epoch(const std::vector<std::vector<float>>& xs,
                               const std::vector<std::uint8_t>& ys) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("BnnTrainer: bad dataset");
  }
  // The loss indexes the last layer's scores by label.
  const std::size_t n_out = net_->layers().back().out_features();
  for (const std::uint8_t y : ys) {
    if (y >= n_out) {
      throw std::invalid_argument("BnnTrainer: label out of range");
    }
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
