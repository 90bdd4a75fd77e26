#ifndef WLM_WORKLOADS_GENERATORS_H_
#define WLM_WORKLOADS_GENERATORS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/types.h"
#include "sim/simulation.h"

namespace wlm {

/// OLTP workload shape: short transactions (milliseconds of CPU, a few
/// I/Os), hot-key exclusive locks with Zipfian skew — the paper's
/// "cashiers in a store" revenue-generating class.
struct OltpWorkloadConfig {
  std::string application = "pos-system";
  std::string user = "cashier";
  std::string client_ip = "10.0.0.1";
  double mean_cpu_seconds = 0.004;
  double mean_io_ops = 8.0;
  double memory_mb = 2.0;
  int locks_per_txn = 3;
  /// Fraction of lock requests taken exclusive.
  double write_fraction = 0.7;
};

/// BI / analytics workload shape: heavy-tailed (lognormal) long queries,
/// large scans/joins/sorts, big memory grants, no locks (read-only MVCC
/// assumption).
struct BiWorkloadConfig {
  std::string application = "reporting";
  std::string user = "analyst";
  std::string client_ip = "10.0.0.2";
  /// Lognormal CPU demand: median = exp(mu).
  double cpu_mu = 1.0;   // median e^1 ~ 2.7 cpu-seconds
  double cpu_sigma = 1.0;
  /// I/O ops per CPU-second.
  double io_per_cpu = 600.0;
  /// Working memory scales with cpu demand.
  double memory_mb_per_cpu_second = 64.0;
  double min_memory_mb = 32.0;
};

/// Online administrative utilities (backup / reorg / runstats): long,
/// I/O-dominated maintenance work (Parekh et al.'s throttled class).
struct UtilityWorkloadConfig {
  std::string application = "dbadmin";
  std::string user = "dba";
  std::string client_ip = "10.0.0.3";
  double cpu_seconds = 20.0;
  double io_ops = 40000.0;
  double memory_mb = 64.0;
};

/// Deterministic spec factory: every call draws from the generator's own
/// seeded Rng and allocates monotonically increasing query ids.
class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(uint64_t seed, QueryId first_id = 1);

  QuerySpec NextOltp(const OltpWorkloadConfig& config);
  QuerySpec NextBi(const BiWorkloadConfig& config);
  QuerySpec NextUtility(const UtilityWorkloadConfig& config);

  QueryId next_id() const { return next_id_; }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  QueryId next_id_;
  uint64_t session_counter_ = 1;
};

/// Open-loop Poisson arrival process: draws exponential inter-arrival
/// times and feeds generated specs to `submit` until stopped or the
/// configured horizon passes.
class OpenLoopDriver {
 public:
  using MakeSpec = std::function<QuerySpec()>;
  using Submit = std::function<void(QuerySpec)>;

  /// `rate` = arrivals per second.
  OpenLoopDriver(Simulation* sim, Rng* rng, double rate, MakeSpec make,
                 Submit submit);

  /// Starts generating; arrivals stop at absolute time `until`
  /// (<= 0 means run until Stop()).
  void Start(double until = 0.0);
  void Stop();
  int64_t generated() const { return generated_; }
  void set_rate(double rate) { rate_ = rate; }

 private:
  void ScheduleNext();

  Simulation* sim_;
  Rng* rng_;
  double rate_;
  MakeSpec make_;
  Submit submit_;
  double until_ = 0.0;
  bool running_ = false;
  int64_t generated_ = 0;
  Simulation::EventId pending_ = 0;
};

/// Closed-loop client population: `clients` users each submit one request,
/// wait for its terminal completion (signalled by the caller via
/// OnRequestFinished), think, and submit again — the workload model behind
/// the MPL/thrashing experiments [69][70].
class ClosedLoopDriver {
 public:
  using MakeSpec = std::function<QuerySpec()>;
  using Submit = std::function<void(QuerySpec)>;

  ClosedLoopDriver(Simulation* sim, Rng* rng, int clients,
                   double mean_think_seconds, MakeSpec make, Submit submit);

  void Start();
  void Stop();
  /// The caller must route terminal completions here (e.g. from a
  /// WorkloadManager completion listener).
  void OnRequestFinished(QueryId id);

  int64_t submitted() const { return submitted_; }

 private:
  void ClientSubmit(int client);

  Simulation* sim_;
  Rng* rng_;
  int clients_;
  double think_;
  MakeSpec make_;
  Submit submit_;
  bool running_ = false;
  int64_t submitted_ = 0;
  std::vector<QueryId> in_flight_;  // per client
};

/// One trace record for replay.
struct TraceEntry {
  double arrival_time = 0.0;
  QuerySpec spec;
};

/// Schedules every trace entry's submission at its arrival time.
void ReplayTrace(Simulation* sim, const std::vector<TraceEntry>& trace,
                 std::function<void(QuerySpec)> submit);

}  // namespace wlm

#endif  // WLM_WORKLOADS_GENERATORS_H_
