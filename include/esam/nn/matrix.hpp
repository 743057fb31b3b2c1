// Minimal dense matrix for BNN training (no external BLAS in this repo).
//
// Row-major float storage with just the operations the trainer needs:
// GEMM-ish products, transposed products, and elementwise maps. Sizes in
// this project are small (<= 768x256), so clarity beats blocking tricks.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <vector>

namespace esam::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float* row_data(std::size_t r) {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] const float* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }
  [[nodiscard]] std::vector<float>& flat() { return data_; }
  [[nodiscard]] const std::vector<float>& flat() const { return data_; }

  /// y = this * x  (rows x cols) * (cols) -> (rows). The library's BNN
  /// forward runs on nn::PackedBnn; this float product is the oracle the
  /// tests and the microbench compare it against.
  [[nodiscard]] std::vector<float> multiply(const std::vector<float>& x) const;

  /// y = this^T * x  (cols) <- (rows)
  [[nodiscard]] std::vector<float> multiply_transposed(
      const std::vector<float>& x) const;

  /// this += scale * a b^T (outer product accumulate)
  void add_outer(float scale, const std::vector<float>& a,
                 const std::vector<float>& b);

  /// Elementwise in-place map.
  void apply(const std::function<float(float)>& f);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace esam::nn
