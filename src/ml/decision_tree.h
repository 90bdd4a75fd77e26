#ifndef WLM_ML_DECISION_TREE_H_
#define WLM_ML_DECISION_TREE_H_

#include <cstddef>
#include <vector>

#include "ml/dataset.h"

namespace wlm {

struct DecisionTreeConfig {
  int max_depth = 8;
  int min_samples_leaf = 4;
  /// false: classification (Gini impurity, majority-vote leaves);
  /// true: regression (variance reduction, mean leaves). The PQR-style
  /// execution-time-range predictor [23] uses classification over time
  /// buckets; resource prediction uses regression.
  bool regression = false;
};

/// CART decision tree. Deterministic: ties break toward the lowest feature
/// index and threshold.
class DecisionTree {
 public:
  explicit DecisionTree(DecisionTreeConfig config = DecisionTreeConfig());

  /// Learns the tree; replaces any previous fit.
  void Fit(const Dataset& data);
  bool fitted() const { return !nodes_.empty(); }

  /// Predicted class id (classification) or mean value (regression).
  double Predict(const std::vector<double>& features) const;

  size_t node_count() const { return nodes_.size(); }
  int depth() const { return depth_; }

 private:
  struct Node {
    int feature = -1;          // -1 for leaves
    double threshold = 0.0;    // go left if x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;        // leaf prediction
  };

  int Build(const Dataset& data, std::vector<size_t>& indices, int depth);
  double LeafValue(const Dataset& data,
                   const std::vector<size_t>& indices) const;
  double Impurity(const Dataset& data,
                  const std::vector<size_t>& indices) const;

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  int depth_ = 0;
};

}  // namespace wlm

#endif  // WLM_ML_DECISION_TREE_H_
