#ifndef WLM_ADMISSION_THRESHOLD_ADMISSION_H_
#define WLM_ADMISSION_THRESHOLD_ADMISSION_H_

#include <limits>
#include <map>
#include <string>

#include "common/stats.h"
#include "core/interfaces.h"

namespace wlm {

/// Query-cost threshold admission (Table 2 row 1; DB2/SQL-Server/Teradata
/// style [9][50][72]): an arriving query whose estimated cost exceeds the
/// threshold is rejected (or held for an off-peak operating period).
/// Thresholds may differ per workload and per operating period, as the
/// paper's admission-control policies describe.
class QueryCostAdmission : public AdmissionController {
 public:
  struct Config {
    /// Default cost ceiling, timerons; infinity disables.
    double max_timerons = std::numeric_limits<double>::infinity();
    /// Optional ceiling on the optimizer's estimated elapsed seconds
    /// (the SQL Server "query governor cost limit" flavour).
    double max_est_seconds = std::numeric_limits<double>::infinity();
    /// Per-workload overrides of max_timerons.
    std::map<std::string, double> per_workload_timerons;
    /// When true, over-threshold queries are *held in the queue* until an
    /// off-peak window instead of rejected ("queued for later admission").
    bool queue_instead_of_reject = false;
    /// Off-peak window (simulated seconds-of-day within `day_length`)
    /// during which held queries may dispatch. Only used when queueing.
    double offpeak_start = 0.0;
    double offpeak_end = 0.0;
    double day_length = 86400.0;
  };

  explicit QueryCostAdmission(Config config);

  Status OnArrival(const Request& request,
                   const WorkloadManager& manager) override;
  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int64_t rejected_count() const { return rejected_; }

 private:
  double ThresholdFor(const Request& request) const;
  bool OverThreshold(const Request& request) const;
  bool InOffpeakWindow(double now) const;

  Config config_;
  int64_t rejected_ = 0;
};

/// MPL threshold admission (Table 2 row 2): caps the number of requests
/// running concurrently, globally and/or per workload. Arrivals are never
/// rejected — they queue until concurrency headroom exists.
class MplAdmission : public AdmissionController {
 public:
  struct Config {
    int max_mpl = 0;  // <= 0 disables the global cap
    std::map<std::string, int> per_workload_mpl;
  };

  explicit MplAdmission(Config config);

  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int max_mpl() const { return config_.max_mpl; }

 private:
  Config config_;
};

/// Conflict-ratio admission (Moenkeberg & Weikum [56], Table 2 row 3):
/// while the lock conflict ratio exceeds the critical threshold, new
/// transactions are held in the queue; they dispatch once contention
/// subsides.
class ConflictRatioAdmission : public AdmissionController {
 public:
  /// 1.3 is the paper's classic critical conflict-ratio value.
  explicit ConflictRatioAdmission(double critical_ratio = 1.3);

  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override;
  TechniqueInfo info() const override;

 private:
  double critical_ratio_;
};

/// Throughput-feedback admission (Heiss & Wagner [26], Table 2 row 4):
/// hill-climbs the allowed concurrency level on the measured throughput
/// gradient — more admissions while throughput rises, fewer once it falls.
class ThroughputFeedbackAdmission : public AdmissionController {
 public:
  struct Config {
    int initial_mpl = 4;
    int min_mpl = 1;
    int max_mpl = 256;
    /// Relative throughput change treated as noise.
    double tolerance = 0.02;
  };

  ThroughputFeedbackAdmission();
  explicit ThroughputFeedbackAdmission(Config config);

  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override;
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int current_mpl() const { return mpl_; }

 private:
  Config config_;
  int mpl_;
  int direction_ = 1;
  double last_throughput_ = -1.0;
  Ewma smoothed_{0.5};
};

/// Indicator-based admission (Zhang et al. [79][80], Table 2 row 5):
/// monitors a set of system health indicators; when any exceeds its
/// threshold, requests at or below `gated_priority` are no longer
/// admitted (held in queue) while high-priority work continues.
class IndicatorAdmission : public AdmissionController {
 public:
  struct Config {
    double max_cpu_utilization = 0.95;
    double max_memory_utilization = 0.95;
    /// Requests with priority <= this are gated during congestion.
    BusinessPriority gated_priority = BusinessPriority::kLow;
  };

  IndicatorAdmission();
  explicit IndicatorAdmission(Config config);

  bool AllowDispatch(const Request& request,
                     const WorkloadManager& manager) override;
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

 private:
  Config config_;
  bool congested_ = false;
};

}  // namespace wlm

#endif  // WLM_ADMISSION_THRESHOLD_ADMISSION_H_
