// Bipartite graph between two named vertex sets, e.g. hosts x domains
// (HDBG), domains x IPs (DIBG), domains x minute-buckets (DTBG).
//
// Build phase: add_edge() appends one `left << 32 | right` key to a flat
// list (duplicates allowed — a host may query the same domain many times;
// a left's repeat of its last right is dropped at once). finalize() turns
// the list into sorted, distinct CSR rows for both sides with counting
// passes; queries require a finalized graph, and adding an edge after
// finalize() un-finalizes it. Builders that already hold vertex ids
// (core::GraphBuilderSink caches them per raw name) intern each name once
// with add_left()/add_right() and add edges by id; the string add_edge() is
// the same thing in one call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/interner.hpp"

namespace dnsembed::graph {

using VertexId = util::StringInterner::Id;

class BipartiteGraph {
 public:
  /// Intern a vertex, with or without edges; returns its id (ids are dense
  /// and assigned in first-seen order on each side).
  VertexId add_left(std::string_view name);
  VertexId add_right(std::string_view name);

  /// Record one left-right interaction between interned ids. Un-finalizes
  /// the graph; a repeated edge collapses at finalize().
  void add_edge(VertexId left, VertexId right);

  /// add_edge(add_left(left), add_right(right)).
  void add_edge(std::string_view left, std::string_view right);

  /// Sort and deduplicate the edges into both sides' rows (traced as span
  /// "graph.bipartite.finalize"). Idempotent; callers finalize once after
  /// the build loop.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

  /// Replace every edge by the left-major rows `right_ids`: row l is
  /// right_ids[offsets[l], offsets[l + 1]). Throws std::invalid_argument
  /// unless `offsets` has left_count() + 1 entries, runs monotone from 0 to
  /// right_ids.size(), and each row is strictly ascending and in range.
  /// The result is finalized: the direct path of loaders and filters,
  /// which already hold sorted rows.
  void assign_rows(std::vector<std::size_t> offsets, std::vector<VertexId> right_ids);

  std::size_t left_count() const noexcept { return left_names_.size(); }
  std::size_t right_count() const noexcept { return right_names_.size(); }

  /// Number of distinct edges (finalized graphs only).
  std::size_t edge_count() const;

  /// Sorted distinct neighbors (finalized graphs only).
  std::span<const VertexId> left_neighbors(VertexId left) const;
  std::span<const VertexId> right_neighbors(VertexId right) const;

  std::size_t left_degree(VertexId left) const { return left_neighbors(left).size(); }
  std::size_t right_degree(VertexId right) const { return right_neighbors(right).size(); }

  const util::StringInterner& left_names() const noexcept { return left_names_; }
  const util::StringInterner& right_names() const noexcept { return right_names_; }

  /// A copy containing only the right vertices for which keep() is true
  /// (and the left vertices still touching them). Used for the paper's
  /// domain-pruning rules. Ids are those a by-name re-add of the kept edges
  /// (right-major, in id order) would assign: a kept right vertex without
  /// edges is dropped. The result is finalized.
  BipartiteGraph filter_right(const std::vector<bool>& keep) const;

 private:
  /// One side's adjacency: row v is ids[offsets[v], offsets[v + 1]).
  struct Rows {
    std::vector<std::size_t> offsets{0};
    std::vector<VertexId> ids;

    std::span<const VertexId> row(VertexId v) const {
      return {ids.data() + offsets[v], offsets[v + 1] - offsets[v]};
    }
  };

  void ensure_finalized(const char* op) const;
  /// Back to the build phase: the rows become keys again.
  void unfinalize();
  /// The right side's rows from the left side's (a counting transpose, so
  /// each right row comes out ascending).
  void transpose_left_rows();

  util::StringInterner left_names_;
  util::StringInterner right_names_;
  std::vector<std::uint64_t> keys_;   // build phase: left << 32 | right
  std::vector<VertexId> last_right_;  // each left's last added right
  Rows left_;                         // finalized: left id -> right ids
  Rows right_;                        // finalized: right id -> left ids
  bool finalized_ = false;
};

}  // namespace dnsembed::graph
