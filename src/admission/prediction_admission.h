#ifndef WLM_ADMISSION_PREDICTION_ADMISSION_H_
#define WLM_ADMISSION_PREDICTION_ADMISSION_H_

#include <string>
#include <vector>

#include "characterization/features.h"
#include "common/result.h"
#include "core/interfaces.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"

namespace wlm {

/// PQR-style prediction-based admission (Gupta et al. [23]): a decision
/// tree trained on historical executions predicts which *range* (bucket)
/// of execution time an arriving query falls into; queries predicted into
/// a bucket at or above `reject_bucket` are rejected.
class PqrAdmission : public AdmissionController {
 public:
  struct Config {
    /// Bucket upper bounds in seconds, ascending; an implicit last bucket
    /// covers everything above. E.g. {1, 10, 100} makes 4 ranges.
    std::vector<double> bucket_bounds{1.0, 10.0, 100.0};
    /// Queries predicted into bucket index >= this are rejected.
    int reject_bucket = 3;
  };

  PqrAdmission();
  explicit PqrAdmission(Config config);

  /// Adds one historical observation (pre-execution view + actual
  /// elapsed).
  void AddExample(const QuerySpec& spec, const Plan& plan,
                  double elapsed_seconds);
  Status Train();
  bool trained() const { return tree_.fitted(); }
  size_t example_count() const { return training_.size(); }

  /// Predicted bucket index for a query.
  Result<int> PredictBucket(const QuerySpec& spec, const Plan& plan) const;
  int BucketFor(double elapsed_seconds) const;
  int num_buckets() const {
    return static_cast<int>(config_.bucket_bounds.size()) + 1;
  }

  Status OnArrival(const Request& request,
                   const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int64_t rejected_count() const { return rejected_; }

 private:
  Config config_;
  Dataset training_{PreExecutionFeatureNames()};
  DecisionTree tree_;
  int64_t rejected_ = 0;
};

/// Similarity-based performance prediction admission (Ganapathi et al.
/// [21], by kNN regression as the KCCA stand-in): predicts the elapsed
/// time of an arriving query from its nearest historical neighbours and
/// rejects queries predicted to run longer than the limit.
class SimilarityAdmission : public AdmissionController {
 public:
  struct Config {
    double max_predicted_seconds = 300.0;
  };

  SimilarityAdmission();
  explicit SimilarityAdmission(Config config);

  void AddExample(const QuerySpec& spec, const Plan& plan,
                  double elapsed_seconds);
  Status Train();
  bool trained() const { return knn_.fitted(); }

  /// Predicted elapsed seconds (also useful to schedulers).
  Result<double> PredictElapsed(const QuerySpec& spec,
                                const Plan& plan) const;

  Status OnArrival(const Request& request,
                   const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int64_t rejected_count() const { return rejected_; }

 private:
  Config config_;
  Dataset training_{PreExecutionFeatureNames()};
  KnnRegressor knn_;
  int64_t rejected_ = 0;
};

}  // namespace wlm

#endif  // WLM_ADMISSION_PREDICTION_ADMISSION_H_
