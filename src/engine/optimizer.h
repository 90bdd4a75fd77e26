#ifndef WLM_ENGINE_OPTIMIZER_H_
#define WLM_ENGINE_OPTIMIZER_H_

#include "engine/plan.h"
#include "engine/types.h"

namespace wlm {

/// Cost-model knobs plus the estimation-error model. The paper repeatedly
/// leans on "query costs estimated by the database query optimizer may be
/// inaccurate" — `error_sigma` controls the lognormal multiplicative error
/// applied (deterministically per query id) to all estimates, so experiments
/// can dial misestimation from 0 (oracle) upward.
struct OptimizerConfig {
  /// Lognormal sigma of multiplicative estimation error. 0 = exact.
  double error_sigma = 0.35;
  /// Timeron cost weights (abstract cost units per CPU-second / IO op).
  double timerons_per_cpu_second = 1000.0;
  double timerons_per_io_op = 1.0;
  /// Rows-estimate relative error sigma.
  double rows_error_sigma = 0.5;
};

/// Builds physical plans from query specs and produces pre-execution cost
/// estimates. Plans are deterministic functions of the spec (operator
/// shapes keyed off the spec id), so re-optimizing the same query yields
/// the same plan — required for suspend/resume and resubmission.
class Optimizer {
 public:
  explicit Optimizer(OptimizerConfig config = OptimizerConfig());

  const OptimizerConfig& config() const { return config_; }

  /// Builds the operator tree (flattened to execution order) for `spec`,
  /// splitting the spec's true demands across operators by query kind, and
  /// attaches estimates with the configured error model.
  Plan BuildPlan(const QuerySpec& spec) const;
  /// As above, into `plan`, overwriting every field; its operator list
  /// keeps its capacity, so a reused plan builds without allocating.
  void BuildPlan(const QuerySpec& spec, Plan* plan) const;

  /// Re-estimates an externally constructed operator list (used by query
  /// restructuring when costing sub-plans).
  void AttachEstimates(const QuerySpec& spec, Plan* plan) const;

 private:
  OptimizerConfig config_;
};

}  // namespace wlm

#endif  // WLM_ENGINE_OPTIMIZER_H_
