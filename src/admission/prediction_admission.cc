#include "admission/prediction_admission.h"

#include <algorithm>
#include <cmath>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Neighbours SimilarityAdmission's kNN regression averages.
constexpr int kNeighbours = 5;

}  // namespace

PqrAdmission::PqrAdmission() : PqrAdmission(Config()) {}

PqrAdmission::PqrAdmission(Config config)
    : config_(std::move(config)) {}

int PqrAdmission::BucketFor(double elapsed_seconds) const {
  auto it = std::lower_bound(config_.bucket_bounds.begin(),
                             config_.bucket_bounds.end(), elapsed_seconds);
  return static_cast<int>(it - config_.bucket_bounds.begin());
}

void PqrAdmission::AddExample(const QuerySpec& spec, const Plan& plan,
                              double elapsed_seconds) {
  training_.Add(PreExecutionFeatures(spec, plan),
                static_cast<double>(BucketFor(elapsed_seconds)));
}

Status PqrAdmission::Train() {
  if (training_.size() < 10) {
    return Status::FailedPrecondition("insufficient training history");
  }
  tree_.Fit(training_);
  return Status::OK();
}

Result<int> PqrAdmission::PredictBucket(const QuerySpec& spec,
                                        const Plan& plan) const {
  if (!tree_.fitted()) return Status::FailedPrecondition("not trained");
  return static_cast<int>(tree_.Predict(PreExecutionFeatures(spec, plan)));
}

Status PqrAdmission::OnArrival(const Request& request,
                               const WorkloadManager& manager) {
  (void)manager;
  if (!tree_.fitted()) return Status::OK();  // fail open until trained
  Result<int> bucket = PredictBucket(request.spec, request.plan);
  if (bucket.ok() && *bucket >= config_.reject_bucket) {
    ++rejected_;
    return Status::Rejected("predicted execution-time range too large");
  }
  return Status::OK();
}

TechniqueInfo PqrAdmission::info() const {
  TechniqueInfo info;
  info.name = "PQR execution-time-range prediction";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kPredictionBasedAdmission;
  info.description =
      "Decision tree trained on historical executions predicts the "
      "range of a query's execution time before it runs; queries in "
      "excessive ranges are rejected.";
  info.source = "Gupta et al. [23]";
  return info;
}

SimilarityAdmission::SimilarityAdmission()
    : SimilarityAdmission(Config()) {}

SimilarityAdmission::SimilarityAdmission(Config config)
    : config_(config), knn_(kNeighbours) {}

void SimilarityAdmission::AddExample(const QuerySpec& spec, const Plan& plan,
                                     double elapsed_seconds) {
  // Learn log-elapsed: multiplicative errors, heavy tails.
  training_.Add(PreExecutionFeatures(spec, plan),
                std::log1p(elapsed_seconds));
}

Status SimilarityAdmission::Train() {
  if (training_.size() < static_cast<size_t>(kNeighbours)) {
    return Status::FailedPrecondition("insufficient training history");
  }
  knn_.Fit(training_);
  return Status::OK();
}

Result<double> SimilarityAdmission::PredictElapsed(const QuerySpec& spec,
                                                   const Plan& plan) const {
  if (!knn_.fitted()) return Status::FailedPrecondition("not trained");
  return std::expm1(knn_.Predict(PreExecutionFeatures(spec, plan)));
}

Status SimilarityAdmission::OnArrival(const Request& request,
                                      const WorkloadManager& manager) {
  (void)manager;
  if (!knn_.fitted()) return Status::OK();  // fail open until trained
  Result<double> predicted = PredictElapsed(request.spec, request.plan);
  if (predicted.ok() && *predicted > config_.max_predicted_seconds) {
    ++rejected_;
    return Status::Rejected("predicted elapsed time exceeds limit");
  }
  return Status::OK();
}

TechniqueInfo SimilarityAdmission::info() const {
  TechniqueInfo info;
  info.name = "Similarity-based performance prediction";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kPredictionBasedAdmission;
  info.description =
      "Predicts an arriving query's elapsed time from the observed "
      "behaviour of its nearest historical neighbours in feature space "
      "and rejects predicted long-runners.";
  info.source = "Ganapathi et al. [21] (kNN stand-in for KCCA)";
  return info;
}

}  // namespace wlm
