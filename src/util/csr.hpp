// Compact CSR graph and dense-matrix arenas with a zero-copy mmap load
// path — the million-domain storage layer for similarity graphs and
// embeddings.
//
// The pipeline's durable graph form used to be a text payload parsed into
// vector-of-vectors adjacency; at 1M domains that costs one allocation per
// vertex plus a full decimal re-parse per load. An arena instead lays every
// array out in one contiguous, checksummed artifact payload:
//
//   artifact header line '\n'                (util/artifact container)
//   [u8 pad_count][pad_count zero bytes]     (alignment prologue)
//   u64 magic  u64 n_sections                (arena body, 8-aligned in file)
//   n_sections x {u64 tag, u64 offset, u64 size}
//   section bytes, each starting 8-aligned
//
// The writer picks pad_count so the body begins at a file offset that is a
// multiple of 8; map_artifact mmaps the file (page-aligned base), so every
// u64/f64/f32 section is naturally aligned in memory and loads are
// zero-copy pointer casts — no parse, no allocation proportional to the
// graph. Foreign payloads whose body lands misaligned are copied once into
// owned aligned storage instead of faulting.
//
// Two concrete arenas live here:
//   - CsrGraph (kind "csr-graph"): offsets/cols/weights CSR adjacency,
//     per-vertex weighted degrees, and the vertex-name blob. Each edge is
//     stored once per endpoint and nowhere else; the edge list is the
//     adjacency's upper triangle in row order (CsrGraph::for_each_edge).
//   - DenseMatrix (kind "embedding-arena"): row-major f32 matrix plus the
//     row-name blob — the embedding artifact form.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/artifact.hpp"

namespace dnsembed::util {

inline constexpr std::string_view kCsrGraphKind = "csr-graph";
inline constexpr std::string_view kDenseMatrixKind = "embedding-arena";

/// Section tag: up to 8 ASCII bytes packed little-endian into a u64.
constexpr std::uint64_t arena_tag(std::string_view name) noexcept {
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < name.size() && i < 8; ++i) {
    tag |= static_cast<std::uint64_t>(static_cast<unsigned char>(name[i])) << (8 * i);
  }
  return tag;
}

inline constexpr std::uint64_t kArenaMagic = arena_tag("dnsemArn");

/// Builds an arena section by section. Sections are emitted in add order;
/// each begins 8-aligned within the body. The writer keeps views, not
/// copies: every added range must stay alive and unchanged until the arena
/// is serialized, which then copies each section once, straight to its
/// final offset.
class ArenaWriter {
 public:
  void add(std::uint64_t tag, const void* data, std::size_t size);

  template <typename T>
  void add_typed(std::uint64_t tag, std::span<const T> values) {
    static_assert(alignof(T) <= 8);
    add(tag, values.data(), values.size() * sizeof(T));
  }

  /// Serialize to an artifact payload for `kind`, prologue pad chosen so
  /// the body starts 8-aligned inside the final container file.
  std::string payload(std::string_view kind) const;

  /// make_artifact(kind, payload(kind)), built in one buffer.
  std::string container(std::string_view kind) const;

  /// Atomically write container(kind) to `path` (util::save_artifact
  /// without the intermediate payload string).
  void save_file(const std::string& path, std::string_view kind) const;

 private:
  struct Section {
    std::uint64_t tag = 0;
    const char* data = nullptr;
    std::size_t size = 0;
  };

  std::size_t body_size() const noexcept;
  std::size_t pad_for(std::string_view kind) const noexcept;
  /// The one payload layout routine: prologue, section table and sections
  /// into out[0, 1 + pad + body_size()).
  void write_payload(char* out, std::size_t pad) const;

  std::vector<Section> sections_;
};

/// A vertex- or row-name table as two arena sections: the names
/// concatenated into one blob, and count+1 offsets into it. The blob is a
/// vector, not a string, so views into it survive a move: a short string
/// keeps its bytes inside the object, and a moved string leaves them behind.
struct NameTable {
  std::vector<char> blob;
  std::vector<std::uint64_t> offsets{0};

  void add(std::string_view name) {
    blob.insert(blob.end(), name.begin(), name.end());
    offsets.push_back(blob.size());
  }
};

NameTable build_name_table(std::span<const std::string> names);

/// Throws CorruptArtifact (via `context`) unless `offsets` holds count+1
/// monotone offsets from 0 to the blob size, so every name substr is in
/// bounds.
void check_name_table(std::string_view blob, std::span<const std::uint64_t> offsets,
                      std::size_t count, const std::string& context);

/// Parsed arena: resolves tags to section byte ranges with full structural
/// validation (magic, table bounds, alignment). Zero-copy when the body is
/// already 8-aligned in memory — always true for arenas we wrote ourselves
/// and loaded via map_artifact — otherwise one aligned copy is taken.
/// Views returned by section()/typed() alias either the caller's payload
/// or this object's owned storage; keep both alive while using them.
class ArenaView {
 public:
  ArenaView() = default;

  /// Throws CorruptArtifact (reported via `context`) on any structural
  /// defect. The returned view aliases `payload` unless a realignment copy
  /// was needed.
  static ArenaView parse(std::string_view payload, const std::string& context);

  bool has(std::uint64_t tag) const noexcept;

  /// Raw bytes of a section; throws CorruptArtifact when absent.
  std::string_view section(std::uint64_t tag, const std::string& context) const;

  /// Typed view of a section; throws CorruptArtifact when absent or when
  /// the byte size is not a multiple of sizeof(T).
  template <typename T>
  std::span<const T> typed(std::uint64_t tag, const std::string& context) const {
    static_assert(alignof(T) <= 8);
    const std::string_view bytes = require_multiple(tag, sizeof(T), context);
    return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
  }

  /// False when a misaligned body forced the aligned fallback copy.
  bool zero_copy() const noexcept { return owned_.empty(); }

 private:
  std::string_view require_multiple(std::uint64_t tag, std::size_t elem_size,
                                    const std::string& context) const;

  struct Entry {
    std::uint64_t tag = 0;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };

  std::string_view body_;
  std::vector<std::uint64_t> owned_;  // aligned fallback storage
  std::vector<Entry> entries_;
};

/// Immutable CSR graph over dense u32 vertex ids: the sorted symmetric
/// adjacency (offsets/cols/weights), precomputed weighted degrees, and
/// optional vertex names. Movable but not copyable (accessors are spans
/// into owned or mapped storage; all owned storage is vectors, whose
/// buffers move with them).
class CsrGraph {
 public:
  CsrGraph() = default;
  CsrGraph(CsrGraph&&) = default;
  CsrGraph& operator=(CsrGraph&&) = default;
  CsrGraph(const CsrGraph&) = delete;
  CsrGraph& operator=(const CsrGraph&) = delete;

  /// Build from an undirected edge list over ids in [0, vertex_count). The
  /// arrays are read, not kept: the result's edge list is its upper
  /// triangle (for_each_edge), which is the input itself when the input is
  /// (u, v)-sorted with u < v, as the projection emits it; such rows are
  /// already ascending and skip the per-row sort. Self-loops, out-of-range
  /// ids, and non-positive weights are rejected with std::invalid_argument;
  /// a repeated edge stays a repeated entry.
  static CsrGraph build(std::size_t vertex_count, std::span<const std::uint32_t> edge_u,
                        std::span<const std::uint32_t> edge_v,
                        std::span<const double> edge_w,
                        std::span<const std::string> names = {});

  std::size_t vertex_count() const noexcept { return vertex_count_; }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Calls f(u, v, w) once per edge, u < v, in (u, v) order: the
  /// adjacency's upper triangle, row by row, ascending within each row.
  /// This is the graph's edge list, edge_count() edges long.
  template <typename F>
  void for_each_edge(F&& f) const {
    for (std::uint32_t u = 0; u < vertex_count_; ++u) {
      for (std::uint64_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        if (cols_[i] > u) f(u, cols_[i], adj_weights_[i]);
      }
    }
  }

  std::span<const std::uint32_t> neighbors(std::uint32_t v) const noexcept {
    return cols_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  std::span<const double> neighbor_weights(std::uint32_t v) const noexcept {
    return adj_weights_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }
  std::size_t degree(std::uint32_t v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }
  /// True when {u, v} is an edge: a binary search of u's sorted row.
  bool has_edge(std::uint32_t u, std::uint32_t v) const noexcept {
    const auto row = neighbors(u);
    return std::binary_search(row.begin(), row.end(), v);
  }
  /// Sum of incident edge weights over the sorted adjacency.
  double weighted_degree(std::uint32_t v) const noexcept { return weighted_deg_[v]; }

  bool has_names() const noexcept { return name_offsets_.size() == vertex_count_ + 1; }
  std::string_view name(std::uint32_t v) const noexcept {
    return name_blob_.substr(name_offsets_[v], name_offsets_[v + 1] - name_offsets_[v]);
  }
  /// Materialize the names as owned strings (EmbeddingMatrix interop);
  /// decimal ids when the graph has no names.
  std::vector<std::string> names_copy() const;

  /// Arena payload (artifact kind kCsrGraphKind).
  std::string payload() const;

  /// Parse + validate; the result's spans alias `payload_bytes` (caller
  /// keeps them alive) unless realignment forced a copy.
  static CsrGraph from_payload(std::string_view payload_bytes, const std::string& context);

  /// Atomic checksummed save / mmap zero-copy load.
  void save_file(const std::string& path) const;
  static CsrGraph load_file(const std::string& path);

  /// True when the adjacency spans read straight out of the file
  /// mapping (the load took no per-element copy or parse).
  bool zero_copy() const noexcept { return zero_copy_; }

 private:
  /// The arena's sections; `head` (vertex and edge count) must outlive
  /// the writer.
  ArenaWriter writer(const std::uint64_t (&head)[2]) const;
  static CsrGraph from_arena(ArenaView arena, const std::string& context);

  MappedArtifact artifact_;
  ArenaView arena_;

  // Build-path owned storage (empty for mapped loads).
  std::vector<std::uint64_t> own_offsets_;
  std::vector<std::uint32_t> own_cols_;
  std::vector<double> own_adj_weights_;
  std::vector<double> own_weighted_deg_;
  std::vector<char> own_name_blob_;
  std::vector<std::uint64_t> own_name_offsets_;

  std::span<const std::uint64_t> offsets_;
  std::span<const std::uint32_t> cols_;
  std::span<const double> adj_weights_;
  std::span<const double> weighted_deg_;
  std::string_view name_blob_;
  std::span<const std::uint64_t> name_offsets_;

  std::size_t vertex_count_ = 0;
  std::size_t edge_count_ = 0;
  bool zero_copy_ = false;
};

/// Immutable row-major f32 matrix with named rows — the arena form of an
/// embedding. Same ownership rules as CsrGraph.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(DenseMatrix&&) = default;
  DenseMatrix& operator=(DenseMatrix&&) = default;
  DenseMatrix(const DenseMatrix&) = delete;
  DenseMatrix& operator=(const DenseMatrix&) = delete;

  /// data.size() must equal names.size() * cols.
  static DenseMatrix build(std::span<const std::string> names, std::size_t cols,
                           std::span<const float> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::span<const float> data() const noexcept { return data_; }
  std::span<const float> row(std::size_t i) const noexcept {
    return data_.subspan(i * cols_, cols_);
  }
  std::string_view name(std::size_t i) const noexcept {
    return name_blob_.substr(name_offsets_[i], name_offsets_[i + 1] - name_offsets_[i]);
  }
  std::vector<std::string> names_copy() const;

  std::string payload() const;
  static DenseMatrix from_payload(std::string_view payload_bytes, const std::string& context);

  void save_file(const std::string& path) const;
  static DenseMatrix load_file(const std::string& path);

  bool zero_copy() const noexcept { return zero_copy_; }

 private:
  ArenaWriter writer(const std::uint64_t (&head)[2]) const;
  static DenseMatrix from_arena(ArenaView arena, const std::string& context);

  MappedArtifact artifact_;
  ArenaView arena_;

  std::vector<float> own_data_;
  std::vector<char> own_name_blob_;
  std::vector<std::uint64_t> own_name_offsets_;

  std::span<const float> data_;
  std::string_view name_blob_;
  std::span<const std::uint64_t> name_offsets_;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool zero_copy_ = false;
};

}  // namespace dnsembed::util
