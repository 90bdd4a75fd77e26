#include "engine/plan.h"

namespace wlm {

double Plan::TotalCpu() const {
  double total = 0.0;
  for (const PlanOperator& op : operators) total += op.cpu_seconds;
  return total;
}

double Plan::TotalIo() const {
  double total = 0.0;
  for (const PlanOperator& op : operators) total += op.io_ops;
  return total;
}

double Plan::TotalWork(double io_ops_per_second) const {
  return TotalCpu() + TotalIo() / io_ops_per_second;
}

double Plan::StandaloneSeconds(int dop, double io_ops_per_second) const {
  double elapsed = 0.0;
  double effective_dop = dop > 0 ? static_cast<double>(dop) : 1.0;
  for (const PlanOperator& op : operators) {
    double cpu_time = op.cpu_seconds / effective_dop;
    double io_time = op.io_ops / io_ops_per_second;
    elapsed += cpu_time > io_time ? cpu_time : io_time;
  }
  return elapsed;
}

}  // namespace wlm
