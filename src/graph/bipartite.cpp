#include "graph/bipartite.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/span.hpp"

namespace dnsembed::graph {

namespace {

constexpr VertexId kNoVertex = ~VertexId{0};

}  // namespace

VertexId BipartiteGraph::add_left(std::string_view name) {
  const VertexId id = left_names_.intern(name);
  if (id == last_right_.size()) {
    last_right_.push_back(kNoVertex);
    if (finalized_) left_.offsets.push_back(left_.offsets.back());  // an edgeless row
  }
  return id;
}

VertexId BipartiteGraph::add_right(std::string_view name) {
  const VertexId id = right_names_.intern(name);
  if (finalized_ && id + 1 == right_.offsets.size()) {
    right_.offsets.push_back(right_.offsets.back());
  }
  return id;
}

void BipartiteGraph::add_edge(VertexId left, VertexId right) {
  if (left >= left_count() || right >= right_count()) {
    throw std::out_of_range{"BipartiteGraph::add_edge: unknown vertex id"};
  }
  if (finalized_) unfinalize();
  // A repeat of a left's last right is dropped here rather than at
  // finalize(): builders add the same interaction in runs.
  if (last_right_[left] == right) return;
  last_right_[left] = right;
  keys_.push_back(std::uint64_t{left} << 32 | right);
}

void BipartiteGraph::add_edge(std::string_view left, std::string_view right) {
  // Sequenced: the left name is interned before the right one.
  const VertexId l = add_left(left);
  add_edge(l, add_right(right));
}

void BipartiteGraph::finalize() {
  if (finalized_) return;
  OBS_SPAN("graph.bipartite.finalize");
  const std::size_t left_n = left_count();
  const std::size_t right_n = right_count();
  // Counting pass: where each right's keys and each left's raw row start.
  std::vector<std::size_t> by_right(right_n + 1, 0);
  std::vector<std::size_t> raw(left_n + 1, 0);
  for (const std::uint64_t key : keys_) {
    ++by_right[(key & 0xFFFFFFFFu) + 1];
    ++raw[(key >> 32) + 1];
  }
  for (std::size_t r = 0; r < right_n; ++r) by_right[r + 1] += by_right[r];
  for (std::size_t l = 0; l < left_n; ++l) raw[l + 1] += raw[l];

  // Bucket the keys' lefts by right, then free the keys.
  std::vector<VertexId> lefts(keys_.size());
  {
    std::vector<std::size_t> next(by_right.begin(), by_right.end() - 1);
    for (const std::uint64_t key : keys_) {
      lefts[next[key & 0xFFFFFFFFu]++] = static_cast<VertexId>(key >> 32);
    }
  }
  std::vector<std::uint64_t>().swap(keys_);

  // Walk the rights upward, appending each to its lefts' raw rows: every
  // row comes out ascending, and a repeated edge is a repeat of its row's
  // last entry.
  std::vector<VertexId> rows(lefts.size());
  std::vector<std::size_t> end(raw.begin(), raw.end() - 1);
  for (VertexId r = 0; r < right_n; ++r) {
    for (std::size_t i = by_right[r]; i < by_right[r + 1]; ++i) {
      const VertexId l = lefts[i];
      if (end[l] != raw[l] && rows[end[l] - 1] == r) continue;
      rows[end[l]++] = r;
    }
  }

  // Close the gaps the dropped repeats left.
  left_.offsets.resize(left_n + 1);
  left_.offsets[0] = 0;
  for (std::size_t l = 0; l < left_n; ++l) {
    left_.offsets[l + 1] = left_.offsets[l] + (end[l] - raw[l]);
  }
  left_.ids.resize(left_.offsets[left_n]);
  for (std::size_t l = 0; l < left_n; ++l) {
    std::copy(rows.begin() + static_cast<std::ptrdiff_t>(raw[l]),
              rows.begin() + static_cast<std::ptrdiff_t>(end[l]),
              left_.ids.begin() + static_cast<std::ptrdiff_t>(left_.offsets[l]));
  }
  transpose_left_rows();
  finalized_ = true;
}

void BipartiteGraph::assign_rows(std::vector<std::size_t> offsets,
                                 std::vector<VertexId> right_ids) {
  const std::size_t left_n = left_count();
  if (offsets.size() != left_n + 1 || offsets.front() != 0 ||
      offsets.back() != right_ids.size()) {
    throw std::invalid_argument{"bipartite rows: offsets do not cover the right ids"};
  }
  // Monotone from 0 to right_ids.size(): every row then lies inside it.
  for (std::size_t l = 0; l < left_n; ++l) {
    if (offsets[l] > offsets[l + 1]) {
      throw std::invalid_argument{"bipartite rows: offsets not monotone"};
    }
  }
  for (std::size_t l = 0; l < left_n; ++l) {
    for (std::size_t i = offsets[l]; i < offsets[l + 1]; ++i) {
      if (right_ids[i] >= right_count()) {
        throw std::invalid_argument{"bipartite rows: right id out of range"};
      }
      if (i > offsets[l] && right_ids[i - 1] >= right_ids[i]) {
        throw std::invalid_argument{"bipartite rows: row not strictly ascending"};
      }
    }
  }
  std::vector<std::uint64_t>().swap(keys_);
  left_.offsets = std::move(offsets);
  left_.ids = std::move(right_ids);
  transpose_left_rows();
  finalized_ = true;
}

void BipartiteGraph::transpose_left_rows() {
  const std::size_t right_n = right_count();
  right_.offsets.assign(right_n + 1, 0);
  for (const VertexId r : left_.ids) ++right_.offsets[r + 1];
  for (std::size_t r = 0; r < right_n; ++r) right_.offsets[r + 1] += right_.offsets[r];
  right_.ids.resize(left_.ids.size());
  std::vector<std::size_t> next(right_.offsets.begin(), right_.offsets.end() - 1);
  for (VertexId l = 0; l < left_count(); ++l) {
    for (const VertexId r : left_.row(l)) right_.ids[next[r]++] = l;
  }
}

void BipartiteGraph::unfinalize() {
  keys_.reserve(left_.ids.size());
  for (VertexId l = 0; l < left_count(); ++l) {
    for (const VertexId r : left_.row(l)) keys_.push_back(std::uint64_t{l} << 32 | r);
  }
  left_ = {};
  right_ = {};
  finalized_ = false;
}

void BipartiteGraph::ensure_finalized(const char* op) const {
  if (!finalized_) {
    throw std::logic_error{std::string{"BipartiteGraph: "} + op + " requires finalize()"};
  }
}

std::size_t BipartiteGraph::edge_count() const {
  ensure_finalized("edge_count");
  return left_.ids.size();
}

std::span<const VertexId> BipartiteGraph::left_neighbors(VertexId left) const {
  ensure_finalized("left_neighbors");
  if (left >= left_count()) throw std::out_of_range{"BipartiteGraph: bad left id"};
  return left_.row(left);
}

std::span<const VertexId> BipartiteGraph::right_neighbors(VertexId right) const {
  ensure_finalized("right_neighbors");
  if (right >= right_count()) throw std::out_of_range{"BipartiteGraph: bad right id"};
  return right_.row(right);
}

BipartiteGraph BipartiteGraph::filter_right(const std::vector<bool>& keep) const {
  ensure_finalized("filter_right");
  if (keep.size() != right_count()) {
    throw std::invalid_argument{"BipartiteGraph::filter_right: keep mask size mismatch"};
  }
  // Intern the kept names in the order a right-major re-add of the kept
  // edges meets them, each name once.
  std::vector<VertexId> right_id(right_count(), kNoVertex);
  std::vector<VertexId> left_id(left_count(), kNoVertex);
  std::vector<VertexId> kept_lefts;  // new left id -> old left id
  BipartiteGraph out;
  for (VertexId r = 0; r < right_count(); ++r) {
    const auto lefts = right_.row(r);
    if (!keep[r] || lefts.empty()) continue;
    right_id[r] = out.add_right(right_names_.name(r));
    for (const VertexId l : lefts) {
      if (left_id[l] != kNoVertex) continue;
      left_id[l] = out.add_left(left_names_.name(l));
      kept_lefts.push_back(l);
    }
  }
  // A kept left's row is its row's kept rights: kept rights are numbered
  // in id order, so the row stays ascending.
  std::vector<std::size_t> offsets{0};
  offsets.reserve(kept_lefts.size() + 1);
  std::vector<VertexId> right_ids;
  for (const VertexId l : kept_lefts) {
    for (const VertexId r : left_.row(l)) {
      if (right_id[r] != kNoVertex) right_ids.push_back(right_id[r]);
    }
    offsets.push_back(right_ids.size());
  }
  out.assign_rows(std::move(offsets), std::move(right_ids));
  return out;
}

}  // namespace dnsembed::graph
