#ifndef WLM_EXECUTION_FUZZY_CONTROLLER_H_
#define WLM_EXECUTION_FUZZY_CONTROLLER_H_

#include <set>
#include <string>
#include <unordered_map>

#include "core/interfaces.h"

namespace wlm {

/// Fuzzy membership helpers (triangular / shoulder sets).
double RampUp(double x, double a, double b);    // 0 below a, 1 above b
double RampDown(double x, double a, double b);  // 1 below a, 0 above b
double Triangular(double x, double a, double b, double c);  // peak at b

/// Actions the fuzzy execution controller can take on a running query.
enum class FuzzyAction { kContinue, kReprioritize, kKill, kKillResubmit };

/// Krompass et al.'s rule-based fuzzy execution controller for BI
/// workloads on a data warehouse [39]: queries' execution times are not
/// entirely predictable, so crisp thresholds misfire; instead fuzzy sets
/// over the query's *relative overrun* (elapsed / estimated elapsed),
/// *operator progress* and *priority* feed a rule base whose max-min
/// inference picks among continue / reprioritize / kill /
/// kill-and-resubmit.
class FuzzyExecutionController : public ExecutionController {
 public:
  struct Config {
    /// Overrun fuzzy-set breakpoints.
    double overrun_ok = 1.5;
    double overrun_long = 3.0;
    double overrun_huge = 6.0;
    /// Priority at or above this counts as "high".
    BusinessPriority high_priority_cut = BusinessPriority::kHigh;
    /// Only control these workloads (empty = all).
    std::set<std::string> workloads;
    /// Ignore queries younger than this (estimates too noisy).
    double min_elapsed_seconds = 1.0;
    /// Reprioritization cap per query (repeated demotions thrash).
    int max_reprioritizations = 2;
  };

  FuzzyExecutionController();
  explicit FuzzyExecutionController(Config config);

  /// The fuzzy inference itself (exposed for unit tests): given the crisp
  /// inputs, returns the winning action.
  FuzzyAction Decide(double overrun, double progress,
                     bool high_priority) const;

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  void OnRequestEnd(QueryId id) override { reprioritized_.erase(id); }
  TechniqueInfo info() const override;

  int64_t kills() const { return kills_; }
  int64_t resubmit_kills() const { return resubmit_kills_; }
  int64_t reprioritizations() const { return reprioritizations_; }

 private:
  Config config_;
  std::unordered_map<QueryId, int> reprioritized_;
  int64_t kills_ = 0;
  int64_t resubmit_kills_ = 0;
  int64_t reprioritizations_ = 0;
};

}  // namespace wlm

#endif  // WLM_EXECUTION_FUZZY_CONTROLLER_H_
