// Portable scalar reference backend. Every other backend must reproduce
// these results bit-for-bit (tests/test_simd.cpp).
#include <bit>

#include "esam/util/simd.hpp"

namespace esam::util::simd {

namespace detail {
void scalar_axpy_f32(float* y, float a, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scalar_pack_signs_f32(const float* v, std::size_t n, std::uint64_t* out) {
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t len = n - base < 64 ? n - base : 64;
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < len; ++b) {
      word |= static_cast<std::uint64_t>(v[base + b] >= 0.0f) << b;
    }
    out[base / 64] = word;
  }
}
}  // namespace detail

namespace {

std::size_t scalar_count(const std::uint64_t* w, std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return c;
}

std::size_t scalar_and_count(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) {
  std::size_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return c;
}

void scalar_and_assign(std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] &= b[i];
}

void scalar_or_assign(std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] |= b[i];
}

void scalar_xor_assign(std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] ^= b[i];
}

void scalar_andnot_assign(std::uint64_t* a, const std::uint64_t* b,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] &= ~b[i];
}

void scalar_accumulate_ones(const std::uint64_t* w, std::size_t n,
                            std::int32_t* ones) {
  for (std::size_t wi = 0; wi < n; ++wi) {
    std::uint64_t word = w[wi];
    std::int32_t* base = ones + wi * 64;
    while (word != 0) {
      base[std::countr_zero(word)] += 1;
      word &= word - 1;
    }
  }
}

}  // namespace

const Kernels& scalar_kernels() {
  static constexpr Kernels kTable{
      .name = "scalar",
      .count = scalar_count,
      .and_count = scalar_and_count,
      .and_assign = scalar_and_assign,
      .or_assign = scalar_or_assign,
      .xor_assign = scalar_xor_assign,
      .andnot_assign = scalar_andnot_assign,
      .accumulate_ones = scalar_accumulate_ones,
      .axpy_f32 = detail::scalar_axpy_f32,
      .pack_signs_f32 = detail::scalar_pack_signs_f32,
  };
  return kTable;
}

}  // namespace esam::util::simd
