// Bipartite graph between two named vertex sets, e.g. hosts x domains
// (HDBG), domains x IPs (DIBG), domains x minute-buckets (DTBG).
//
// Build phase: add_edge() accumulates (duplicates allowed — a host may query
// the same domain many times). finalize() deduplicates and sorts adjacency;
// queries require a finalized graph. Builders that already hold vertex ids
// (core::GraphBuilderSink caches them per raw name) intern each name once
// with add_left()/add_right() and add edges by id; the string add_edge() is
// the same thing in one call.
#pragma once

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

  /// Deduplicate and sort adjacency lists. Idempotent; called automatically
  /// by accessors via assertion in debug, but callers should finalize once
  /// after the build loop.
  void finalize();
  bool finalized() const noexcept { return finalized_; }

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
  void ensure_finalized(const char* op) const;

  util::StringInterner left_names_;
  util::StringInterner right_names_;
  std::vector<std::vector<VertexId>> left_adj_;   // left id -> right ids
  std::vector<std::vector<VertexId>> right_adj_;  // right id -> left ids
  std::size_t edge_count_ = 0;
  bool finalized_ = false;
};

}  // namespace dnsembed::graph
