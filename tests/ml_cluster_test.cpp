// Tests for the unsupervised stack: k-means, X-Means (BIC model selection),
// and t-SNE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "ml/kmeans.hpp"
#include "ml/tsne.hpp"
#include "ml/xmeans.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dnsembed::ml {
namespace {

using util::simd::Level;

/// `count` points around each of `centers` (rows), stddev sigma.
Matrix blobs(const Matrix& centers, std::size_t count, double sigma, std::uint64_t seed) {
  util::Rng rng{seed};
  Matrix x{centers.rows() * count, centers.cols()};
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    for (std::size_t i = 0; i < count; ++i) {
      auto row = x.row(c * count + i);
      const auto center = centers.row(c);
      for (std::size_t j = 0; j < centers.cols(); ++j) {
        row[j] = center[j] + rng.normal() * sigma;
      }
    }
  }
  return x;
}

Matrix grid_centers(std::size_t k, double spacing) {
  Matrix centers{k, 2};
  for (std::size_t c = 0; c < k; ++c) {
    centers.at(c, 0) = static_cast<double>(c % 3) * spacing;
    centers.at(c, 1) = static_cast<double>(c / 3) * spacing;
  }
  return centers;
}

/// Fraction of same-blob pairs assigned to the same cluster and
/// different-blob pairs assigned to different clusters (Rand index).
double rand_index(const std::vector<std::size_t>& assignment, std::size_t blob_size) {
  double agree = 0;
  double total = 0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    for (std::size_t j = i + 1; j < assignment.size(); ++j) {
      const bool same_blob = i / blob_size == j / blob_size;
      const bool same_cluster = assignment[i] == assignment[j];
      if (same_blob == same_cluster) ++agree;
      ++total;
    }
  }
  return agree / total;
}

TEST(KMeans, RecoversWellSeparatedBlobs) {
  const auto x = blobs(grid_centers(4, 20.0), 30, 1.0, 1);
  KMeansConfig config;
  config.k = 4;
  config.seed = 5;
  const auto result = kmeans(x, config);
  EXPECT_EQ(result.centroids.rows(), 4u);
  EXPECT_GT(rand_index(result.assignment, 30), 0.99);
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  const auto x = blobs(grid_centers(4, 10.0), 25, 1.5, 3);
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t k : {1u, 2u, 4u, 8u}) {
    KMeansConfig config;
    config.k = k;
    config.seed = 7;
    const auto result = kmeans(x, config);
    EXPECT_LT(result.inertia, prev);
    prev = result.inertia;
  }
}

TEST(KMeans, KEqualsOneGivesGlobalCentroid) {
  Matrix x{4, 1};
  x.at(0, 0) = 0.0;
  x.at(1, 0) = 2.0;
  x.at(2, 0) = 4.0;
  x.at(3, 0) = 6.0;
  KMeansConfig config;
  config.k = 1;
  const auto result = kmeans(x, config);
  EXPECT_NEAR(result.centroids.at(0, 0), 3.0, 1e-9);
  EXPECT_NEAR(result.inertia, 20.0, 1e-9);
}

TEST(KMeans, DeterministicForFixedSeed) {
  const auto x = blobs(grid_centers(3, 8.0), 20, 1.0, 9);
  KMeansConfig config;
  config.k = 3;
  config.seed = 11;
  const auto a = kmeans(x, config);
  const auto b = kmeans(x, config);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, RejectsBadConfig) {
  Matrix x{3, 1};
  KMeansConfig config;
  config.k = 0;
  EXPECT_THROW(kmeans(x, config), std::invalid_argument);
  config.k = 5;
  EXPECT_THROW(kmeans(x, config), std::invalid_argument);
  config.k = 2;
  config.restarts = 0;
  EXPECT_THROW(kmeans(x, config), std::invalid_argument);
}

TEST(KMeans, HandlesDuplicatePoints) {
  Matrix x{6, 1};
  for (std::size_t i = 0; i < 6; ++i) x.at(i, 0) = i < 3 ? 1.0 : 1.0;  // all identical
  KMeansConfig config;
  config.k = 2;
  const auto result = kmeans(x, config);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(XMeans, FindsTheRightNumberOfClusters) {
  const auto x = blobs(grid_centers(5, 25.0), 40, 1.0, 13);
  XMeansConfig config;
  config.k_min = 2;
  config.k_max = 16;
  config.seed = 17;
  const auto result = xmeans(x, config);
  EXPECT_EQ(result.k, 5u);
  EXPECT_GT(rand_index(result.assignment, 40), 0.99);
}

TEST(XMeans, DoesNotSplitASingleGaussian) {
  Matrix center{1, 2};
  center.at(0, 0) = 3.0;
  center.at(0, 1) = -2.0;
  const auto x = blobs(center, 150, 1.0, 19);
  XMeansConfig config;
  config.k_min = 1;
  config.k_max = 10;
  config.seed = 23;
  const auto result = xmeans(x, config);
  EXPECT_EQ(result.k, 1u);
}

TEST(XMeans, RespectsKMax) {
  const auto x = blobs(grid_centers(6, 30.0), 30, 0.5, 29);
  XMeansConfig config;
  config.k_min = 2;
  config.k_max = 4;
  const auto result = xmeans(x, config);
  EXPECT_LE(result.k, 4u);
  EXPECT_GE(result.k, 2u);
}

TEST(XMeans, BicPrefersTrueStructure) {
  const auto x = blobs(grid_centers(2, 30.0), 50, 1.0, 31);
  // Fit k=1 and k=2 by hand and compare BIC.
  KMeansConfig k1;
  k1.k = 1;
  const auto fit1 = kmeans(x, k1);
  KMeansConfig k2;
  k2.k = 2;
  const auto fit2 = kmeans(x, k2);
  EXPECT_GT(kmeans_bic(x, fit2.centroids, fit2.assignment),
            kmeans_bic(x, fit1.centroids, fit1.assignment));
}

TEST(XMeans, RejectsBadConfig) {
  Matrix x{10, 1};
  XMeansConfig config;
  config.k_min = 5;
  config.k_max = 3;
  EXPECT_THROW(xmeans(x, config), std::invalid_argument);
  config.k_min = 0;
  EXPECT_THROW(xmeans(x, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reference k-means: k-means++ and the plain Lloyd scan (every point against
// every centroid, lowest-index argmin), as ml::kmeans computed them before
// its later passes were bounded. ml::kmeans must reproduce it bit for bit.

Matrix reference_kmeanspp(const Matrix& x, std::size_t k, util::Rng& rng) {
  const std::size_t n = x.rows();
  Matrix centroids{k, x.cols()};
  std::vector<double> min_dist(n, std::numeric_limits<double>::infinity());
  std::size_t first = rng.uniform_index(n);
  std::copy(x.row(first).begin(), x.row(first).end(), centroids.row(0).begin());
  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], squared_l2(x.row(i), centroids.row(c - 1)));
      total += min_dist[i];
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double u = rng.uniform() * total;
      for (std::size_t i = 0; i < n; ++i) {
        u -= min_dist[i];
        if (u <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.uniform_index(n);
    }
    std::copy(x.row(chosen).begin(), x.row(chosen).end(), centroids.row(c).begin());
  }
  return centroids;
}

KMeansResult reference_lloyd(const Matrix& x, Matrix centroids, std::size_t max_iterations,
                             util::Rng& rng) {
  const std::size_t n = x.rows();
  const std::size_t k = centroids.rows();
  const std::size_t d = x.cols();
  KMeansResult result;
  result.assignment.assign(n, 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = iter == 0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const double dist = squared_l2(x.row(i), centroids.row(c));
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      if (result.assignment[i] != best_c) changed = true;
      result.assignment[i] = best_c;
    }
    result.iterations = iter + 1;
    if (!changed && iter > 0) break;

    Matrix sums{k, d};
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      auto dst = sums.row(result.assignment[i]);
      const auto src = x.row(i);
      for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
      ++counts[result.assignment[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      auto row = centroids.row(c);
      if (counts[c] == 0) {
        const auto src = x.row(rng.uniform_index(n));
        std::copy(src.begin(), src.end(), row.begin());
        continue;
      }
      const auto sum = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) row[j] = sum[j] / static_cast<double>(counts[c]);
    }
  }
  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += squared_l2(x.row(i), centroids.row(result.assignment[i]));
  }
  result.centroids = std::move(centroids);
  return result;
}

KMeansResult reference_kmeans(const Matrix& x, const KMeansConfig& config) {
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < config.restarts; ++r) {
    util::Rng rng{config.seed + r * 0x9e3779b97f4a7c15ULL};
    auto centroids = reference_kmeanspp(x, config.k, rng);
    auto result = reference_lloyd(x, std::move(centroids), config.max_iterations, rng);
    if (result.inertia < best.inertia) best = std::move(result);
  }
  return best;
}

/// ml::xmeans' split and round logic over reference_kmeans.
XMeansResult reference_xmeans(const Matrix& x, const XMeansConfig& config) {
  KMeansConfig base;
  base.k = std::min(config.k_min, x.rows());
  base.max_iterations = config.max_iterations;
  base.restarts = config.restarts;
  base.seed = config.seed;
  KMeansResult current = reference_kmeans(x, base);
  bool improved = true;
  std::uint64_t round = 0;
  while (improved && current.centroids.rows() < config.k_max) {
    improved = false;
    ++round;
    std::vector<std::vector<std::size_t>> members(current.centroids.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) members[current.assignment[i]].push_back(i);
    std::vector<Matrix> new_centroid_sets;
    for (std::size_t c = 0; c < members.size(); ++c) {
      const auto& idx = members[c];
      bool split = false;
      if (idx.size() >= 4 && current.centroids.rows() + new_centroid_sets.size() -
                                  static_cast<std::size_t>(c < new_centroid_sets.size()) <
                              config.k_max) {
        Matrix local = x.select_rows(idx);
        Matrix parent_centroid{1, x.cols()};
        std::copy(current.centroids.row(c).begin(), current.centroids.row(c).end(),
                  parent_centroid.row(0).begin());
        const double parent_bic =
            kmeans_bic(local, parent_centroid, std::vector<std::size_t>(idx.size(), 0));
        KMeansConfig child_cfg;
        child_cfg.k = 2;
        child_cfg.max_iterations = config.max_iterations;
        child_cfg.restarts = config.restarts;
        child_cfg.seed = config.seed + 1000 * round + c;
        const KMeansResult child = reference_kmeans(local, child_cfg);
        if (kmeans_bic(local, child.centroids, child.assignment) > parent_bic) {
          new_centroid_sets.push_back(child.centroids);
          split = true;
          improved = true;
        }
      }
      if (!split) {
        Matrix keep{1, x.cols()};
        std::copy(current.centroids.row(c).begin(), current.centroids.row(c).end(),
                  keep.row(0).begin());
        new_centroid_sets.push_back(std::move(keep));
      }
    }
    if (!improved) break;
    std::size_t total_k = 0;
    for (const auto& set : new_centroid_sets) total_k += set.rows();
    KMeansConfig next_cfg;
    next_cfg.k = std::min(total_k, config.k_max);
    next_cfg.max_iterations = config.max_iterations;
    next_cfg.restarts = config.restarts;
    next_cfg.seed = config.seed + 7 * round;
    current = reference_kmeans(x, next_cfg);
  }
  XMeansResult result;
  result.k = current.centroids.rows();
  result.bic = kmeans_bic(x, current.centroids, current.assignment);
  result.centroids = std::move(current.centroids);
  result.assignment = std::move(current.assignment);
  return result;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) == 0);
}

struct ClusterCase {
  std::string name;
  Matrix x;
};

/// Random blobs, uniform noise, integer grids (exact distance ties),
/// duplicate rows (k-means++ on zero mass, empty clusters, reseeds) and an
/// embedding-shaped 72-dimensional set.
std::vector<ClusterCase> cluster_cases() {
  std::vector<ClusterCase> cases;
  cases.push_back({"blobs", blobs(grid_centers(9, 7.0), 25, 1.2, 101)});
  {
    util::Rng rng{103};
    Matrix x{150, 13};
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (double& v : x.row(i)) v = rng.uniform(-3.0, 3.0);
    }
    cases.push_back({"uniform13", std::move(x)});
  }
  {
    util::Rng rng{107};
    Matrix x{200, 3};
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (double& v : x.row(i)) v = static_cast<double>(rng.uniform_index(4));
    }
    cases.push_back({"grid3", std::move(x)});
  }
  {
    Matrix x{100, 1};
    for (std::size_t i = 0; i < x.rows(); ++i) x.at(i, 0) = static_cast<double>(i % 10);
    cases.push_back({"line", std::move(x)});
  }
  {
    util::Rng rng{109};
    Matrix distinct{5, 4};
    for (std::size_t i = 0; i < 5; ++i) {
      for (double& v : distinct.row(i)) v = rng.normal() * 4.0;
    }
    Matrix x{60, 4};
    for (std::size_t i = 0; i < x.rows(); ++i) {
      std::copy(distinct.row(i % 5).begin(), distinct.row(i % 5).end(), x.row(i).begin());
    }
    cases.push_back({"duplicates", std::move(x)});
  }
  {
    util::Rng rng{113};
    Matrix centers{5, 72};
    for (std::size_t c = 0; c < centers.rows(); ++c) {
      for (double& v : centers.row(c)) v = rng.normal() * 0.6;
    }
    cases.push_back({"embedding72", blobs(centers, 40, 1.0, 127)});
  }
  return cases;
}

TEST(KMeansBounds, MatchesThePlainScanBitForBit) {
  const Level original = util::simd::active_level();
  for (const Level level : {Level::kScalar, Level::kSse2, Level::kAvx2}) {
    if (!util::simd::level_supported(level)) continue;
    util::simd::force_level(level);
    for (const auto& c : cluster_cases()) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{7}, std::size_t{16}, c.x.rows()}) {
        for (const std::size_t max_iterations : {std::size_t{3}, std::size_t{100}}) {
          KMeansConfig config;
          config.k = k;
          config.max_iterations = max_iterations;
          config.restarts = 2;
          config.seed = 17 + k;
          const auto want = reference_kmeans(c.x, config);
          const auto got = kmeans(c.x, config);
          const std::string where = std::string{util::simd::level_name(level)} + " " + c.name +
                                    " k=" + std::to_string(k) +
                                    " max_iterations=" + std::to_string(max_iterations);
          EXPECT_EQ(got.assignment, want.assignment) << where;
          EXPECT_TRUE(same_bytes(got.centroids, want.centroids)) << where;
          EXPECT_TRUE(same_bits(got.inertia, want.inertia))
              << where << " inertia " << got.inertia << " vs " << want.inertia;
          EXPECT_EQ(got.iterations, want.iterations) << where;
        }
      }
    }
  }
  util::simd::force_level(original);
}

// An embedding-shaped input at `run`'s scale of k: 640 points in 72
// dimensions around 48 loose centers. At k = 65 and 130 the candidate mask
// spans two and three 64-bit words, and the long tails of passes where few
// points move run the clean-cluster path.
TEST(KMeansBounds, EmbeddingScaleMatchesThePlainScanBitForBit) {
  util::Rng rng{131};
  Matrix centers{48, 72};
  for (std::size_t c = 0; c < centers.rows(); ++c) {
    for (double& v : centers.row(c)) v = rng.normal() * 0.5;
  }
  const Matrix x = blobs(centers, 640 / 48 + 1, 0.8, 137);
  const Level original = util::simd::active_level();
  for (const Level level : {Level::kScalar, Level::kSse2, Level::kAvx2}) {
    if (!util::simd::level_supported(level)) continue;
    util::simd::force_level(level);
    for (const std::size_t k : {std::size_t{40}, std::size_t{65}, std::size_t{130}}) {
      KMeansConfig config;
      config.k = k;
      config.restarts = 2;
      config.seed = 41 + k;
      const auto want = reference_kmeans(x, config);
      const auto got = kmeans(x, config);
      const std::string where =
          std::string{util::simd::level_name(level)} + " k=" + std::to_string(k);
      EXPECT_EQ(got.assignment, want.assignment) << where;
      EXPECT_TRUE(same_bytes(got.centroids, want.centroids)) << where;
      EXPECT_TRUE(same_bits(got.inertia, want.inertia)) << where;
      EXPECT_EQ(got.iterations, want.iterations) << where;
      EXPECT_GT(got.iterations, 5u) << where;
    }
  }
  util::simd::force_level(original);
}

// Many tiny inputs on coarse grids of non-representable steps (0.1, 0.3,
// 1/7), some offset by 1e3: distances tie up to rounding, where textbook
// Elkan bounds (no margin, no outward rounding) skip a candidate the plain
// scan picks in about one case in 2,000.
TEST(KMeansBounds, CoarseGridsMatchThePlainScanBitForBit) {
  for (int s = 0; s < 20000; ++s) {
    util::Rng rng{1000003ULL * static_cast<std::uint64_t>(s) + 7};
    const std::size_t d = 1 + rng.uniform_index(3);
    const std::size_t n = 6 + rng.uniform_index(30);
    const std::size_t levels = 2 + rng.uniform_index(5);
    const double step = s % 3 == 0 ? 0.1 : (s % 3 == 1 ? 0.3 : 1.0 / 7.0);
    const double offset = s % 5 == 0 ? 1e3 : 0.0;
    Matrix x{n, d};
    for (std::size_t i = 0; i < n; ++i) {
      for (double& v : x.row(i)) v = step * static_cast<double>(rng.uniform_index(levels)) + offset;
    }
    KMeansConfig config;
    config.k = 1 + rng.uniform_index(std::min<std::size_t>(n, 8));
    config.restarts = 1;
    config.seed = static_cast<std::uint64_t>(s);
    const auto want = reference_kmeans(x, config);
    const auto got = kmeans(x, config);
    ASSERT_EQ(got.assignment, want.assignment) << "case " << s;
    ASSERT_TRUE(same_bytes(got.centroids, want.centroids)) << "case " << s;
    ASSERT_TRUE(same_bits(got.inertia, want.inertia)) << "case " << s;
    ASSERT_EQ(got.iterations, want.iterations) << "case " << s;
  }
}

TEST(KMeansBounds, XMeansMatchesThePlainScanBitForBit) {
  for (const auto& c : cluster_cases()) {
    for (const auto& [k_min, k_max] : {std::pair<std::size_t, std::size_t>{1, 3},
                                       std::pair<std::size_t, std::size_t>{2, 16},
                                       std::pair<std::size_t, std::size_t>{5, 16}}) {
      XMeansConfig config;
      config.k_min = k_min;
      config.k_max = k_max;
      config.seed = 29 + k_min;
      const auto want = reference_xmeans(c.x, config);
      const auto got = xmeans(c.x, config);
      const std::string where =
          c.name + " k_min=" + std::to_string(k_min) + " k_max=" + std::to_string(k_max);
      EXPECT_EQ(got.k, want.k) << where;
      EXPECT_EQ(got.assignment, want.assignment) << where;
      EXPECT_TRUE(same_bytes(got.centroids, want.centroids)) << where;
      EXPECT_TRUE(same_bits(got.bic, want.bic)) << where;
    }
  }
}

TEST(Tsne, PreservesClusterStructureIn2D) {
  // Three tight blobs in 10-D; t-SNE must keep them separated in 2-D.
  Matrix centers{3, 10};
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t j = 0; j < 10; ++j) centers.at(c, j) = c == j ? 25.0 : 0.0;
  }
  const auto x = blobs(centers, 25, 0.5, 37);
  TsneConfig config;
  config.perplexity = 10.0;
  config.iterations = 350;
  config.seed = 41;
  const Matrix y = tsne(x, config);
  ASSERT_EQ(y.rows(), 75u);
  ASSERT_EQ(y.cols(), 2u);

  // Mean intra-blob distance must be far below mean inter-blob distance.
  double intra = 0.0;
  double inter = 0.0;
  std::size_t intra_n = 0;
  std::size_t inter_n = 0;
  for (std::size_t i = 0; i < 75; ++i) {
    for (std::size_t j = i + 1; j < 75; ++j) {
      const double d = std::sqrt(squared_l2(y.row(i), y.row(j)));
      if (i / 25 == j / 25) {
        intra += d;
        ++intra_n;
      } else {
        inter += d;
        ++inter_n;
      }
    }
  }
  intra /= static_cast<double>(intra_n);
  inter /= static_cast<double>(inter_n);
  EXPECT_GT(inter / intra, 3.0) << "inter=" << inter << " intra=" << intra;
}

TEST(Tsne, OutputIsCentered) {
  Matrix centers{2, 3};
  centers.at(1, 0) = 10.0;
  const auto x = blobs(centers, 20, 1.0, 43);
  TsneConfig config;
  config.perplexity = 8.0;
  config.iterations = 100;
  const Matrix y = tsne(x, config);
  for (std::size_t d = 0; d < 2; ++d) {
    double mean = 0.0;
    for (std::size_t i = 0; i < y.rows(); ++i) mean += y.at(i, d);
    EXPECT_NEAR(mean / static_cast<double>(y.rows()), 0.0, 1e-6);
  }
}

TEST(Tsne, RejectsBadConfig) {
  Matrix x{10, 2};
  TsneConfig config;
  config.perplexity = 20.0;  // >= n
  EXPECT_THROW(tsne(x, config), std::invalid_argument);
  config.perplexity = 3.0;
  config.output_dims = 0;
  EXPECT_THROW(tsne(x, config), std::invalid_argument);
  Matrix tiny{3, 2};
  EXPECT_THROW(tsne(tiny, TsneConfig{}), std::invalid_argument);
}

TEST(Tsne, DeterministicForFixedSeed) {
  Matrix centers{2, 4};
  centers.at(1, 1) = 12.0;
  const auto x = blobs(centers, 10, 1.0, 47);
  TsneConfig config;
  config.perplexity = 5.0;
  config.iterations = 50;
  config.seed = 53;
  const Matrix a = tsne(x, config);
  const Matrix b = tsne(x, config);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t d = 0; d < 2; ++d) EXPECT_DOUBLE_EQ(a.at(i, d), b.at(i, d));
  }
}

}  // namespace
}  // namespace dnsembed::ml
