#include "util/csr.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dnsembed::util {

namespace {

// Tags of the concrete arenas below.
constexpr std::uint64_t kTagHead = arena_tag("HEAD");
constexpr std::uint64_t kTagOffsets = arena_tag("OFFS");
constexpr std::uint64_t kTagCols = arena_tag("COLS");
constexpr std::uint64_t kTagAdjWeights = arena_tag("AWGT");
constexpr std::uint64_t kTagWeightedDeg = arena_tag("WDEG");
constexpr std::uint64_t kTagNameBlob = arena_tag("NAMB");
constexpr std::uint64_t kTagNameOffsets = arena_tag("NAMO");
constexpr std::uint64_t kTagData = arena_tag("DATA");

[[noreturn]] void corrupt(const std::string& context, std::string reason) {
  fsio::note_corrupt_detected();
  throw CorruptArtifact{context, std::move(reason)};
}

void store_u64(char* out, std::uint64_t value) { std::memcpy(out, &value, 8); }

std::uint64_t read_u64(std::string_view bytes, std::size_t offset) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + offset, 8);
  return value;
}

constexpr std::size_t align8(std::size_t n) noexcept { return (n + 7) & ~std::size_t{7}; }

/// Name-table sections shared by CsrGraph and DenseMatrix.
void append_name_sections(ArenaWriter& writer, std::string_view blob,
                          std::span<const std::uint64_t> offsets) {
  writer.add(kTagNameBlob, blob.data(), blob.size());
  writer.add_typed<std::uint64_t>(kTagNameOffsets, offsets);
}

}  // namespace

// ------------------------------------------------------------- ArenaWriter

void ArenaWriter::add(std::uint64_t tag, const void* data, std::size_t size) {
  sections_.push_back({tag, static_cast<const char*>(data), size});
}

std::size_t ArenaWriter::body_size() const noexcept {
  std::size_t size = 16 + sections_.size() * 24;
  for (const Section& s : sections_) size = align8(size + s.size);
  return size;
}

std::size_t ArenaWriter::pad_for(std::string_view kind) const noexcept {
  // Pick the pad so the body starts at a file offset divisible by 8 once
  // the artifact header line is prepended. The header's length depends on
  // the payload size, whose digit count depends on the pad — iterate; for
  // any fixed digit count 8 consecutive pads cover every residue, so a
  // solution under 24 always exists.
  const std::size_t body = body_size();
  std::size_t pad = 0;
  while (pad < 24) {
    const std::size_t payload_size = 1 + pad + body;
    if ((artifact_payload_offset(kind, payload_size) + 1 + pad) % 8 == 0) break;
    ++pad;
  }
  return pad;
}

void ArenaWriter::write_payload(char* out, std::size_t pad) const {
  out[0] = static_cast<char>(pad);
  std::memset(out + 1, 0, pad);
  char* body = out + 1 + pad;
  store_u64(body, kArenaMagic);
  store_u64(body + 8, sections_.size());
  std::size_t offset = 16 + sections_.size() * 24;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    store_u64(body + 16 + i * 24, s.tag);
    store_u64(body + 16 + i * 24 + 8, offset);
    store_u64(body + 16 + i * 24 + 16, s.size);
    if (s.size != 0) std::memcpy(body + offset, s.data, s.size);
    const std::size_t end = align8(offset + s.size);
    std::memset(body + offset + s.size, 0, end - offset - s.size);
    offset = end;
  }
}

std::string ArenaWriter::payload(std::string_view kind) const {
  const std::size_t pad = pad_for(kind);
  std::string out(1 + pad + body_size(), '\0');
  write_payload(out.data(), pad);
  return out;
}

std::string ArenaWriter::container(std::string_view kind) const {
  const std::size_t pad = pad_for(kind);
  return make_artifact(kind, 1 + pad + body_size(),
                       [&](char* out) { write_payload(out, pad); });
}

void ArenaWriter::save_file(const std::string& path, std::string_view kind) const {
  fsio::atomic_write_file(path, container(kind));
}

// -------------------------------------------------------------- name tables

NameTable build_name_table(std::span<const std::string> names) {
  NameTable table;
  std::size_t total = 0;
  for (const std::string& n : names) total += n.size();
  table.blob.reserve(total);
  table.offsets.reserve(names.size() + 1);
  for (const std::string& n : names) table.add(n);
  return table;
}

void check_name_table(std::string_view blob, std::span<const std::uint64_t> offsets,
                      std::size_t count, const std::string& context) {
  if (offsets.empty() || offsets.size() - 1 != count) {
    corrupt(context, "arena: name offset count mismatch");
  }
  if (offsets[0] != 0 || offsets[count] != blob.size()) {
    corrupt(context, "arena: name offsets do not cover blob");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) corrupt(context, "arena: name offsets not monotone");
  }
}

// --------------------------------------------------------------- ArenaView

ArenaView ArenaView::parse(std::string_view payload, const std::string& context) {
  if (payload.empty()) corrupt(context, "arena: empty payload");
  const std::size_t pad = static_cast<unsigned char>(payload[0]);
  if (payload.size() < 1 + pad + 16) corrupt(context, "arena: truncated header");

  ArenaView view;
  std::string_view body = payload.substr(1 + pad);
  if (reinterpret_cast<std::uintptr_t>(body.data()) % 8 != 0) {
    // Foreign writer (or a non-mapped buffer) left the body misaligned:
    // one aligned copy instead of undefined typed loads.
    view.owned_.assign((body.size() + 7) / 8, 0);
    std::memcpy(view.owned_.data(), body.data(), body.size());
    body = {reinterpret_cast<const char*>(view.owned_.data()), body.size()};
  }
  view.body_ = body;

  if (read_u64(body, 0) != kArenaMagic) corrupt(context, "arena: bad magic");
  const std::uint64_t n = read_u64(body, 8);
  if (n > (body.size() - 16) / 24) corrupt(context, "arena: section table exceeds body");
  view.entries_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry e;
    e.tag = read_u64(body, 16 + i * 24);
    e.offset = read_u64(body, 16 + i * 24 + 8);
    e.size = read_u64(body, 16 + i * 24 + 16);
    if (e.offset % 8 != 0) corrupt(context, "arena: misaligned section offset");
    if (e.offset > body.size() || e.size > body.size() - e.offset) {
      corrupt(context, "arena: section out of bounds");
    }
    view.entries_.push_back(e);
  }
  return view;
}

bool ArenaView::has(std::uint64_t tag) const noexcept {
  for (const Entry& e : entries_) {
    if (e.tag == tag) return true;
  }
  return false;
}

std::string_view ArenaView::section(std::uint64_t tag, const std::string& context) const {
  for (const Entry& e : entries_) {
    if (e.tag == tag) return body_.substr(e.offset, e.size);
  }
  corrupt(context, "arena: missing section");
}

std::string_view ArenaView::require_multiple(std::uint64_t tag, std::size_t elem_size,
                                             const std::string& context) const {
  const std::string_view bytes = section(tag, context);
  if (bytes.size() % elem_size != 0) corrupt(context, "arena: ragged section size");
  return bytes;
}

// ---------------------------------------------------------------- CsrGraph

CsrGraph CsrGraph::build(std::size_t vertex_count, std::span<const std::uint32_t> edge_u,
                         std::span<const std::uint32_t> edge_v,
                         std::span<const double> edge_w,
                         std::span<const std::string> names) {
  if (edge_u.size() != edge_v.size() || edge_u.size() != edge_w.size()) {
    throw std::invalid_argument{"CsrGraph: edge array length mismatch"};
  }
  if (!names.empty() && names.size() != vertex_count) {
    throw std::invalid_argument{"CsrGraph: name count mismatch"};
  }

  CsrGraph g;
  g.vertex_count_ = vertex_count;
  const std::size_t e = edge_u.size();
  g.edge_count_ = e;

  g.own_offsets_.assign(vertex_count + 1, 0);
  for (std::size_t i = 0; i < e; ++i) {
    const std::uint32_t u = edge_u[i];
    const std::uint32_t v = edge_v[i];
    if (u >= vertex_count || v >= vertex_count) {
      throw std::invalid_argument{"CsrGraph: vertex id out of range"};
    }
    if (u == v) throw std::invalid_argument{"CsrGraph: self-loop"};
    if (!(edge_w[i] > 0.0)) throw std::invalid_argument{"CsrGraph: non-positive weight"};
    ++g.own_offsets_[u + 1];
    ++g.own_offsets_[v + 1];
  }
  for (std::size_t v = 0; v < vertex_count; ++v) g.own_offsets_[v + 1] += g.own_offsets_[v];

  g.own_cols_.resize(2 * e);
  g.own_adj_weights_.resize(2 * e);
  std::vector<std::uint64_t> cursor{g.own_offsets_.begin(), g.own_offsets_.end() - 1};
  for (std::size_t i = 0; i < e; ++i) {
    const std::uint64_t su = cursor[edge_u[i]]++;
    const std::uint64_t sv = cursor[edge_v[i]]++;
    g.own_cols_[su] = edge_v[i];
    g.own_adj_weights_[su] = edge_w[i];
    g.own_cols_[sv] = edge_u[i];
    g.own_adj_weights_[sv] = edge_w[i];
  }

  // Canonical form: each adjacency run ascending by neighbor id (weights in
  // tandem), weighted degree summed in that order. A strictly ascending run
  // is already canonical (true of every row of a (u, v)-sorted edge list),
  // so only the other runs take the copy-and-sort.
  g.own_weighted_deg_.assign(vertex_count, 0.0);
  std::vector<std::pair<std::uint32_t, double>> scratch;
  for (std::size_t v = 0; v < vertex_count; ++v) {
    const std::uint64_t lo = g.own_offsets_[v];
    const std::uint64_t hi = g.own_offsets_[v + 1];
    bool ascending = true;
    for (std::uint64_t i = lo + 1; i < hi && ascending; ++i) {
      ascending = g.own_cols_[i - 1] < g.own_cols_[i];
    }
    if (!ascending) {
      scratch.clear();
      for (std::uint64_t i = lo; i < hi; ++i) {
        scratch.emplace_back(g.own_cols_[i], g.own_adj_weights_[i]);
      }
      std::sort(scratch.begin(), scratch.end());
      for (std::uint64_t i = lo; i < hi; ++i) {
        g.own_cols_[i] = scratch[i - lo].first;
        g.own_adj_weights_[i] = scratch[i - lo].second;
      }
    }
    double wdeg = 0.0;
    for (std::uint64_t i = lo; i < hi; ++i) wdeg += g.own_adj_weights_[i];
    g.own_weighted_deg_[v] = wdeg;
  }

  if (!names.empty()) {
    NameTable table = build_name_table(names);
    g.own_name_blob_ = std::move(table.blob);
    g.own_name_offsets_ = std::move(table.offsets);
  }

  g.offsets_ = g.own_offsets_;
  g.cols_ = g.own_cols_;
  g.adj_weights_ = g.own_adj_weights_;
  g.weighted_deg_ = g.own_weighted_deg_;
  g.name_blob_ = {g.own_name_blob_.data(), g.own_name_blob_.size()};
  g.name_offsets_ = g.own_name_offsets_;
  return g;
}

std::vector<std::string> CsrGraph::names_copy() const {
  std::vector<std::string> out;
  out.reserve(vertex_count_);
  for (std::uint32_t v = 0; v < vertex_count_; ++v) {
    out.push_back(has_names() ? std::string{name(v)} : std::to_string(v));
  }
  return out;
}

ArenaWriter CsrGraph::writer(const std::uint64_t (&head)[2]) const {
  ArenaWriter w;
  w.add(kTagHead, head, sizeof(head));
  w.add_typed<std::uint64_t>(kTagOffsets, offsets_);
  w.add_typed<std::uint32_t>(kTagCols, cols_);
  w.add_typed<double>(kTagAdjWeights, adj_weights_);
  w.add_typed<double>(kTagWeightedDeg, weighted_deg_);
  if (has_names()) append_name_sections(w, name_blob_, name_offsets_);
  return w;
}

std::string CsrGraph::payload() const {
  const std::uint64_t head[2] = {vertex_count_, edge_count()};
  return writer(head).payload(kCsrGraphKind);
}

CsrGraph CsrGraph::from_arena(ArenaView arena, const std::string& context) {
  CsrGraph g;
  g.arena_ = std::move(arena);
  const ArenaView& a = g.arena_;

  const auto head = a.typed<std::uint64_t>(kTagHead, context);
  if (head.size() != 2) corrupt(context, "csr: bad header section");
  const std::uint64_t v_count = head[0];
  const std::uint64_t e_count = head[1];
  if (v_count > std::uint64_t{1} << 32) corrupt(context, "csr: implausible vertex count");

  // Sections nobody asks for are ignored, so a file that still carries the
  // former edge-list and total-weight sections loads as it is.
  g.offsets_ = a.typed<std::uint64_t>(kTagOffsets, context);
  g.cols_ = a.typed<std::uint32_t>(kTagCols, context);
  g.adj_weights_ = a.typed<double>(kTagAdjWeights, context);
  g.weighted_deg_ = a.typed<double>(kTagWeightedDeg, context);

  if (g.offsets_.size() != v_count + 1) corrupt(context, "csr: offsets length mismatch");
  if (g.cols_.size() != 2 * e_count || g.adj_weights_.size() != 2 * e_count) {
    corrupt(context, "csr: adjacency length mismatch");
  }
  if (g.weighted_deg_.size() != v_count) corrupt(context, "csr: degree section malformed");
  if (g.offsets_[0] != 0 || g.offsets_[v_count] != 2 * e_count) {
    corrupt(context, "csr: offsets do not cover adjacency");
  }
  for (std::uint64_t v = 0; v < v_count; ++v) {
    if (g.offsets_[v] > g.offsets_[v + 1]) corrupt(context, "csr: offsets not monotone");
  }
  // One pass over the rows: every entry in range, rows ascending, no entry
  // on its own row, and exactly e_count entries above the diagonal — the
  // edge list for_each_edge walks.
  std::uint64_t upper = 0;
  for (std::uint64_t v = 0; v < v_count; ++v) {
    for (std::uint64_t i = g.offsets_[v]; i < g.offsets_[v + 1]; ++i) {
      const std::uint32_t c = g.cols_[i];
      if (c >= v_count) corrupt(context, "csr: adjacency id out of range");
      if (c == v) corrupt(context, "csr: self-loop");
      if (i > g.offsets_[v] && g.cols_[i - 1] > c) corrupt(context, "csr: row not sorted");
      upper += c > v;
    }
  }
  if (upper != e_count) corrupt(context, "csr: upper triangle disagrees with edge count");
  if (a.has(kTagNameBlob) || a.has(kTagNameOffsets)) {
    g.name_blob_ = a.section(kTagNameBlob, context);
    g.name_offsets_ = a.typed<std::uint64_t>(kTagNameOffsets, context);
    check_name_table(g.name_blob_, g.name_offsets_, v_count, context);
  }

  g.vertex_count_ = v_count;
  g.edge_count_ = e_count;
  g.zero_copy_ = g.arena_.zero_copy();
  return g;
}

CsrGraph CsrGraph::from_payload(std::string_view payload_bytes, const std::string& context) {
  return from_arena(ArenaView::parse(payload_bytes, context), context);
}

void CsrGraph::save_file(const std::string& path) const {
  const std::uint64_t head[2] = {vertex_count_, edge_count()};
  writer(head).save_file(path, kCsrGraphKind);
}

CsrGraph CsrGraph::load_file(const std::string& path) {
  MappedArtifact artifact = map_artifact(path, kCsrGraphKind);
  CsrGraph g = from_arena(ArenaView::parse(artifact.payload(), path), path);
  g.artifact_ = std::move(artifact);
  return g;
}

// -------------------------------------------------------------- DenseMatrix

DenseMatrix DenseMatrix::build(std::span<const std::string> names, std::size_t cols,
                               std::span<const float> data) {
  if (data.size() != names.size() * cols) {
    throw std::invalid_argument{"DenseMatrix: data size mismatch"};
  }
  DenseMatrix m;
  m.rows_ = names.size();
  m.cols_ = cols;
  m.own_data_.assign(data.begin(), data.end());
  NameTable table = build_name_table(names);
  m.own_name_blob_ = std::move(table.blob);
  m.own_name_offsets_ = std::move(table.offsets);
  m.data_ = m.own_data_;
  m.name_blob_ = {m.own_name_blob_.data(), m.own_name_blob_.size()};
  m.name_offsets_ = m.own_name_offsets_;
  return m;
}

std::vector<std::string> DenseMatrix::names_copy() const {
  std::vector<std::string> out;
  out.reserve(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out.emplace_back(name(i));
  return out;
}

ArenaWriter DenseMatrix::writer(const std::uint64_t (&head)[2]) const {
  ArenaWriter w;
  w.add(kTagHead, head, sizeof(head));
  w.add_typed<float>(kTagData, data_);
  append_name_sections(w, name_blob_, name_offsets_);
  return w;
}

std::string DenseMatrix::payload() const {
  const std::uint64_t head[2] = {rows_, cols_};
  return writer(head).payload(kDenseMatrixKind);
}

DenseMatrix DenseMatrix::from_arena(ArenaView arena, const std::string& context) {
  DenseMatrix m;
  m.arena_ = std::move(arena);
  const ArenaView& a = m.arena_;

  const auto head = a.typed<std::uint64_t>(kTagHead, context);
  if (head.size() != 2) corrupt(context, "matrix: bad header section");
  const std::uint64_t rows = head[0];
  const std::uint64_t cols = head[1];
  m.data_ = a.typed<float>(kTagData, context);
  if (rows != 0 && cols != m.data_.size() / rows) {
    corrupt(context, "matrix: data size mismatch");
  }
  if (m.data_.size() != rows * cols) corrupt(context, "matrix: data size mismatch");
  m.name_blob_ = a.section(kTagNameBlob, context);
  m.name_offsets_ = a.typed<std::uint64_t>(kTagNameOffsets, context);
  check_name_table(m.name_blob_, m.name_offsets_, rows, context);

  m.rows_ = rows;
  m.cols_ = cols;
  m.zero_copy_ = m.arena_.zero_copy();
  return m;
}

DenseMatrix DenseMatrix::from_payload(std::string_view payload_bytes,
                                      const std::string& context) {
  return from_arena(ArenaView::parse(payload_bytes, context), context);
}

void DenseMatrix::save_file(const std::string& path) const {
  const std::uint64_t head[2] = {rows_, cols_};
  writer(head).save_file(path, kDenseMatrixKind);
}

DenseMatrix DenseMatrix::load_file(const std::string& path) {
  MappedArtifact artifact = map_artifact(path, kDenseMatrixKind);
  DenseMatrix m = from_arena(ArenaView::parse(artifact.payload(), path), path);
  m.artifact_ = std::move(artifact);
  return m;
}

}  // namespace dnsembed::util
