#include "embed/embedding.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/artifact.hpp"
#include "util/csr.hpp"
#include "util/csv.hpp"

namespace dnsembed::embed {

EmbeddingMatrix::EmbeddingMatrix(std::vector<std::string> names, std::size_t dimension)
    : names_{std::move(names)}, dimension_{dimension}, data_(names_.size() * dimension, 0.0f) {
  if (dimension == 0) throw std::invalid_argument{"EmbeddingMatrix: zero dimension"};
  rebuild_index();
}

std::span<float> EmbeddingMatrix::row(std::size_t i) {
  if (i >= size()) throw std::out_of_range{"EmbeddingMatrix::row"};
  return {data_.data() + i * dimension_, dimension_};
}

std::span<const float> EmbeddingMatrix::row(std::size_t i) const {
  if (i >= size()) throw std::out_of_range{"EmbeddingMatrix::row"};
  return {data_.data() + i * dimension_, dimension_};
}

std::optional<std::size_t> EmbeddingMatrix::index_of(std::string_view name) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == index_.end() || it->first != name) return std::nullopt;
  return it->second;
}

std::optional<std::span<const float>> EmbeddingMatrix::vector_for(std::string_view name) const {
  const auto idx = index_of(name);
  if (!idx) return std::nullopt;
  return row(*idx);
}

void EmbeddingMatrix::l2_normalize() {
  for (std::size_t i = 0; i < size(); ++i) {
    auto r = row(i);
    double norm2 = 0.0;
    for (const float x : r) norm2 += static_cast<double>(x) * x;
    if (norm2 <= 0.0) continue;
    const auto inv = static_cast<float>(1.0 / std::sqrt(norm2));
    for (float& x : r) x *= inv;
  }
}

double EmbeddingMatrix::cosine(std::size_t i, std::size_t j) const {
  const auto a = row(i);
  const auto b = row(j);
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t k = 0; k < dimension_; ++k) {
    dot += static_cast<double>(a[k]) * b[k];
    na += static_cast<double>(a[k]) * a[k];
    nb += static_cast<double>(b[k]) * b[k];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

EmbeddingMatrix EmbeddingMatrix::concat(const std::vector<std::string>& names,
                                        const std::vector<const EmbeddingMatrix*>& parts) {
  if (parts.empty()) throw std::invalid_argument{"EmbeddingMatrix::concat: no parts"};
  std::size_t total_dim = 0;
  for (const auto* p : parts) {
    if (p == nullptr) throw std::invalid_argument{"EmbeddingMatrix::concat: null part"};
    total_dim += p->dimension();
  }
  EmbeddingMatrix out{names, total_dim};
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto dst = out.row(i);
    std::size_t offset = 0;
    for (const auto* p : parts) {
      if (const auto src = p->vector_for(names[i])) {
        std::copy(src->begin(), src->end(), dst.begin() + static_cast<long>(offset));
      }
      offset += p->dimension();
    }
  }
  return out;
}

void EmbeddingMatrix::save_csv(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"EmbeddingMatrix::save_csv: cannot open " + path};
  for (std::size_t i = 0; i < size(); ++i) {
    out << names_[i];
    for (const float x : row(i)) out << ',' << x;
    out << '\n';
  }
}

EmbeddingMatrix EmbeddingMatrix::load_csv(const std::string& path) {
  const auto rows = util::read_csv_file(path);
  if (rows.empty()) throw std::runtime_error{"EmbeddingMatrix::load_csv: empty file " + path};
  const std::size_t dim = rows.front().size() - 1;
  if (dim == 0) throw std::runtime_error{"EmbeddingMatrix::load_csv: no columns"};
  std::vector<std::string> names;
  names.reserve(rows.size());
  for (const auto& r : rows) names.push_back(r.front());
  EmbeddingMatrix out{std::move(names), dim};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != dim + 1) {
      throw std::runtime_error{"EmbeddingMatrix::load_csv: ragged row " + std::to_string(i)};
    }
    auto dst = out.row(i);
    for (std::size_t k = 0; k < dim; ++k) {
      const auto& field = rows[i][k + 1];
      float value = 0.0f;
      const auto [ptr, ec] =
          std::from_chars(field.data(), field.data() + field.size(), value);
      if (ec != std::errc{} || ptr != field.data() + field.size()) {
        throw std::runtime_error{"EmbeddingMatrix::load_csv: bad number '" + field + "'"};
      }
      dst[k] = value;
    }
  }
  return out;
}

namespace {

[[noreturn]] void bad_embedding(const std::string& context, std::string reason) {
  util::fsio::note_corrupt_detected();
  throw util::CorruptArtifact{context, std::move(reason)};
}

}  // namespace

void EmbeddingMatrix::save_file(const std::string& path) const {
  util::DenseMatrix::build(names_, dimension_, data_).save_file(path);
}

EmbeddingMatrix EmbeddingMatrix::load_file(const std::string& path) {
  const util::DenseMatrix m = util::DenseMatrix::load_file(path);
  if (m.cols() == 0) bad_embedding(path, "embedding arena: zero dimension");
  EmbeddingMatrix out;
  try {
    out = EmbeddingMatrix{m.names_copy(), m.cols()};
  } catch (const std::invalid_argument& e) {
    bad_embedding(path, e.what());
  }
  std::copy(m.data().begin(), m.data().end(), out.data_.begin());
  return out;
}

void EmbeddingMatrix::rebuild_index() {
  index_.clear();
  index_.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) index_.emplace_back(names_[i], i);
  std::sort(index_.begin(), index_.end());
  for (std::size_t i = 1; i < index_.size(); ++i) {
    if (index_[i].first == index_[i - 1].first) {
      throw std::invalid_argument{"EmbeddingMatrix: duplicate name " + index_[i].first};
    }
  }
}

}  // namespace dnsembed::embed
