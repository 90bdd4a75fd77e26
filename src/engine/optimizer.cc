#include "engine/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace wlm {
namespace {

// Fractional split of (cpu, io, state share) across operator slots for each
// query kind. The shapes are stylized versions of typical plans: OLTP =
// a couple of index lookups plus a small write; BI = big scan feeding a
// hash join then sort/aggregate; utility = one long io-heavy pass.
struct OpShape {
  OperatorType type;
  double cpu_frac;
  double io_frac;
  double state_frac;     // fraction of query memory held as operator state
  double checkpoint;     // checkpoint granularity
};

const OpShape kOltpShape[] = {
    {OperatorType::kIndexScan, 0.35, 0.40, 0.02, 1.0},
    {OperatorType::kIndexScan, 0.25, 0.30, 0.02, 1.0},
    {OperatorType::kUpdate, 0.40, 0.30, 0.05, 1.0},
};

const OpShape kBiShape[] = {
    {OperatorType::kTableScan, 0.25, 0.55, 0.05, 0.10},
    {OperatorType::kHashJoin, 0.35, 0.20, 0.60, 0.25},
    {OperatorType::kSort, 0.25, 0.15, 0.30, 0.25},
    {OperatorType::kAggregate, 0.15, 0.10, 0.05, 0.50},
};

const OpShape kUtilityShape[] = {
    {OperatorType::kUtilityOp, 1.0, 1.0, 0.10, 0.05},
};

// Deterministic per-query noise: hash the id into an Rng seed so the same
// query always gets the same estimation error.
double DeterministicLogNormal(QueryId id, uint64_t salt, double sigma) {
  if (sigma <= 0.0) return 1.0;
  Rng rng(id * 0x9e3779b97f4a7c15ULL + salt);
  // mean-one lognormal: exp(N(-sigma^2/2, sigma)).
  return rng.LogNormal(-0.5 * sigma * sigma, sigma);
}

}  // namespace

Optimizer::Optimizer(OptimizerConfig config) : config_(config) {}

Plan Optimizer::BuildPlan(const QuerySpec& spec) const {
  Plan plan;
  BuildPlan(spec, &plan);
  return plan;
}

void Optimizer::BuildPlan(const QuerySpec& spec, Plan* plan) const {
  plan->query_id = spec.id;

  const OpShape* shape = kBiShape;
  size_t shape_len = std::size(kBiShape);
  switch (spec.kind) {
    case QueryKind::kOltpTransaction:
      shape = kOltpShape;
      shape_len = std::size(kOltpShape);
      break;
    case QueryKind::kBiQuery:
      shape = kBiShape;
      shape_len = std::size(kBiShape);
      break;
    case QueryKind::kUtility:
      shape = kUtilityShape;
      shape_len = std::size(kUtilityShape);
      break;
  }

  plan->operators.clear();
  plan->operators.reserve(shape_len);
  for (size_t i = 0; i < shape_len; ++i) {
    PlanOperator op;
    op.type = shape[i].type;
    op.cpu_seconds = spec.cpu_seconds * shape[i].cpu_frac;
    op.io_ops = spec.io_ops * shape[i].io_frac;
    op.max_state_mb = spec.memory_mb * shape[i].state_frac;
    op.checkpoint_fraction = shape[i].checkpoint;
    plan->operators.push_back(op);
  }

  AttachEstimates(spec, plan);
}

void Optimizer::AttachEstimates(const QuerySpec& spec, Plan* plan) const {
  double cpu_noise =
      DeterministicLogNormal(spec.id, 0xC0FFEE, config_.error_sigma);
  double io_noise =
      DeterministicLogNormal(spec.id, 0xBEEF, config_.error_sigma);
  double rows_noise =
      DeterministicLogNormal(spec.id, 0xFACE, config_.rows_error_sigma);

  double true_cpu = plan->TotalCpu();
  double true_io = plan->TotalIo();

  plan->est_cpu_seconds = true_cpu * cpu_noise;
  plan->est_io_ops = true_io * io_noise;
  plan->est_memory_mb = spec.memory_mb * cpu_noise;
  plan->est_rows = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::llround(static_cast<double>(spec.result_rows) * rows_noise)));
  plan->est_timerons = plan->est_cpu_seconds * config_.timerons_per_cpu_second +
                       plan->est_io_ops * config_.timerons_per_io_op;
  // Stand-alone elapsed estimate: cpu and io overlap perfectly at best, so
  // elapsed >= max(cpu, io/rate); use the sequential-pipeline sum per
  // operator (matching the executor's semantics).
  double elapsed = 0.0;
  for (const PlanOperator& op : plan->operators) {
    elapsed += std::max(op.cpu_seconds * cpu_noise / std::max(1, spec.dop),
                        op.io_ops * io_noise /
                            config_.nominal_io_ops_per_second);
  }
  plan->est_elapsed_seconds = elapsed;

  // Per-operator estimated rows: decay from scan cardinality to result.
  int64_t rows = plan->est_rows;
  for (auto it = plan->operators.rbegin(); it != plan->operators.rend();
       ++it) {
    it->est_rows = rows;
    rows *= 4;  // upstream operators see more rows
  }
}

}  // namespace wlm
