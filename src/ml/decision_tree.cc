#include "ml/decision_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numeric>

namespace wlm {
namespace {

/// Candidate split thresholds evaluated per feature (quantile grid).
constexpr size_t kMaxThresholdsPerFeature = 32;

// Gini impurity of a label multiset.
double Gini(const std::map<double, int>& counts, int total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const auto& [label, count] : counts) {
    (void)label;
    double p = static_cast<double>(count) / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

DecisionTree::DecisionTree(DecisionTreeConfig config) : config_(config) {}

double DecisionTree::LeafValue(const Dataset& data,
                               const std::vector<size_t>& indices) const {
  if (indices.empty()) return 0.0;
  if (config_.regression) {
    double sum = 0.0;
    for (size_t i : indices) sum += data.target(i);
    return sum / static_cast<double>(indices.size());
  }
  std::map<double, int> counts;
  for (size_t i : indices) ++counts[data.target(i)];
  double best_label = counts.begin()->first;
  int best_count = counts.begin()->second;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {
      best_label = label;
      best_count = count;
    }
  }
  return best_label;
}

double DecisionTree::Impurity(const Dataset& data,
                              const std::vector<size_t>& indices) const {
  if (config_.regression) {
    double mean = 0.0;
    for (size_t i : indices) mean += data.target(i);
    mean /= static_cast<double>(indices.size());
    double var = 0.0;
    for (size_t i : indices) {
      double d = data.target(i) - mean;
      var += d * d;
    }
    return var / static_cast<double>(indices.size());
  }
  std::map<double, int> counts;
  for (size_t i : indices) ++counts[data.target(i)];
  return Gini(counts, static_cast<int>(indices.size()));
}

void DecisionTree::Fit(const Dataset& data) {
  nodes_.clear();
  depth_ = 0;
  if (data.empty()) return;
  std::vector<size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  Build(data, indices, 0);
}

int DecisionTree::Build(const Dataset& data, std::vector<size_t>& indices,
                        int depth) {
  depth_ = std::max(depth_, depth);
  int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_index].value = LeafValue(data, indices);

  bool stop = depth >= config_.max_depth ||
              static_cast<int>(indices.size()) <
                  2 * config_.min_samples_leaf ||
              Impurity(data, indices) < 1e-12;
  if (stop) return node_index;

  size_t nf = data.num_features();
  double parent_impurity = Impurity(data, indices);
  double best_gain = 1e-9;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<double> values;
  for (size_t f = 0; f < nf; ++f) {
    values.clear();
    for (size_t i : indices) values.push_back(data.row(i)[f]);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) continue;
    // Quantile grid of candidate thresholds (midpoints).
    size_t step =
        std::max<size_t>(1, values.size() / kMaxThresholdsPerFeature);
    for (size_t v = 0; v + 1 < values.size(); v += step) {
      double threshold = 0.5 * (values[v] + values[v + 1]);
      std::vector<size_t> left, right;
      for (size_t i : indices) {
        (data.row(i)[f] <= threshold ? left : right).push_back(i);
      }
      if (static_cast<int>(left.size()) < config_.min_samples_leaf ||
          static_cast<int>(right.size()) < config_.min_samples_leaf) {
        continue;
      }
      double n = static_cast<double>(indices.size());
      double weighted = Impurity(data, left) * left.size() / n +
                        Impurity(data, right) * right.size() / n;
      double gain = parent_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = threshold;
      }
    }
  }

  if (best_feature < 0) return node_index;  // no useful split

  std::vector<size_t> left, right;
  for (size_t i : indices) {
    (data.row(i)[best_feature] <= best_threshold ? left : right).push_back(i);
  }
  // Free the parent's index list before recursing to bound memory.
  indices.clear();
  indices.shrink_to_fit();

  int left_child = Build(data, left, depth + 1);
  int right_child = Build(data, right, depth + 1);
  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  nodes_[node_index].left = left_child;
  nodes_[node_index].right = right_child;
  return node_index;
}

double DecisionTree::Predict(const std::vector<double>& features) const {
  assert(fitted());
  int idx = 0;
  while (nodes_[idx].feature >= 0) {
    const Node& node = nodes_[idx];
    idx = features[static_cast<size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return nodes_[idx].value;
}

}  // namespace wlm
