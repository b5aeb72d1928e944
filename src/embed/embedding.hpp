// Dense embedding matrix keyed by vertex name: the output of every embedder
// and the input of the classifiers. Supports L2 normalization, per-name
// lookup, concatenation across the three similarity graphs (paper §6.1:
// x = [query-vec | ip-vec | temporal-vec] in R^{3k}), the durable arena
// file and CSV interop.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dnsembed::embed {

class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;

  /// Zero-initialized matrix with one row per name.
  EmbeddingMatrix(std::vector<std::string> names, std::size_t dimension);

  std::size_t size() const noexcept { return names_.size(); }
  std::size_t dimension() const noexcept { return dimension_; }

  const std::vector<std::string>& names() const noexcept { return names_; }

  std::span<float> row(std::size_t i);
  std::span<const float> row(std::size_t i) const;

  /// Row index for a name, if present.
  std::optional<std::size_t> index_of(std::string_view name) const;

  /// Row for a name, if present.
  std::optional<std::span<const float>> vector_for(std::string_view name) const;

  /// Scale every row to unit L2 norm (zero rows stay zero).
  void l2_normalize();

  /// Cosine similarity between two rows (0 if either is a zero vector).
  double cosine(std::size_t i, std::size_t j) const;

  /// Concatenate parts by name. The row set is `names`; a part missing a
  /// name contributes zeros (a domain can be absent from e.g. the IP graph
  /// when none of its queries resolved). Total dimension is the sum of part
  /// dimensions.
  static EmbeddingMatrix concat(const std::vector<std::string>& names,
                                const std::vector<const EmbeddingMatrix*>& parts);

  /// CSV persistence: "name,v0,v1,..." one row per line. Decimal rendering
  /// is lossy — interop/inspection only, not a durable intermediate.
  void save_csv(const std::string& path) const;
  static EmbeddingMatrix load_csv(const std::string& path);

  /// Durable artifact persistence: the binary arena (util/csr.hpp
  /// DenseMatrix, kind "embedding-arena"), written atomically and
  /// checksummed, with raw f32 sections loaded via mmap, so coordinates
  /// round-trip bit-exactly. load_file throws util::CorruptArtifact on a
  /// damaged container, a payload of another kind or a malformed arena.
  void save_file(const std::string& path) const;
  static EmbeddingMatrix load_file(const std::string& path);

 private:
  void rebuild_index();

  std::vector<std::string> names_;
  std::size_t dimension_ = 0;
  std::vector<float> data_;  // row-major, size() * dimension_
  std::vector<std::pair<std::string, std::size_t>> index_;  // sorted by name
};

}  // namespace dnsembed::embed
