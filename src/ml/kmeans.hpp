// Lloyd's k-means with k-means++ seeding — the workhorse under X-Means
// (paper §7.1 clusters domain embeddings to surface malware families).
// The first pass reuses k-means++'s distance rows; later passes skip the
// distances that Elkan's triangle-inequality bounds rule out and re-sum only
// the clusters whose membership changed. The result is the plain scan's, bit
// for bit (DESIGN §11).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"

namespace dnsembed::ml {

struct KMeansConfig {
  std::size_t k = 8;
  std::size_t max_iterations = 100;
  /// Restarts with different seeds; the best inertia wins.
  std::size_t restarts = 3;
  std::uint64_t seed = 1;
};

struct KMeansResult {
  Matrix centroids;                     // k x d
  std::vector<std::size_t> assignment;  // row -> cluster
  double inertia = 0.0;                 // sum of squared distances to centroid
  std::size_t iterations = 0;           // of the winning restart
};

/// Cluster rows of x into k groups. Requires k >= 1, k <= rows and finite
/// entries. Publishes the squared distances it evaluates as the
/// `ml.kmeans.distances` counter, once per restart.
KMeansResult kmeans(const Matrix& x, const KMeansConfig& config);

/// Squared Euclidean distance between two equal-length vectors.
double squared_l2(std::span<const double> a, std::span<const double> b) noexcept;

}  // namespace dnsembed::ml
