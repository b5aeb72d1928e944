// Dense feature matrix and labeled dataset types shared by every learner.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dnsembed::ml {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_{rows}, cols_{cols}, data_(rows * cols) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0; }

  std::span<double> row(std::size_t i);
  std::span<const double> row(std::size_t i) const;

  double& at(std::size_t i, std::size_t j);
  double at(std::size_t i, std::size_t j) const;

  /// All rows, contiguous: row i starts at data() + i * cols().
  const double* data() const noexcept { return data_.data(); }

  /// New matrix containing the selected rows, in order.
  Matrix select_rows(std::span<const std::size_t> indices) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Labeled dataset: features, binary labels (0 = benign, 1 = malicious),
/// and optional row names (domain names).
struct Dataset {
  Matrix x;
  std::vector<int> y;
  std::vector<std::string> names;

  std::size_t size() const noexcept { return y.size(); }

  /// Subset by row indices (names carried along when present).
  Dataset select(std::span<const std::size_t> indices) const;

  /// Throws std::invalid_argument if x/y/names sizes disagree or labels
  /// are outside {0, 1}.
  void validate() const;
};

}  // namespace dnsembed::ml
