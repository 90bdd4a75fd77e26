#include "workloads/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace wlm {
namespace {

/// OLTP lock keys are drawn Zipf(kKeySpace, kZipfTheta).
constexpr int64_t kKeySpace = 2000;
constexpr double kZipfTheta = 0.8;
/// BI result rows per CPU-second of demand.
constexpr double kRowsPerCpuSecond = 20000.0;

}  // namespace

WorkloadGenerator::WorkloadGenerator(uint64_t seed, QueryId first_id)
    : rng_(seed), next_id_(first_id) {}

QuerySpec WorkloadGenerator::NextOltp(const OltpWorkloadConfig& config) {
  QuerySpec spec;
  spec.id = next_id_++;
  spec.kind = QueryKind::kOltpTransaction;
  spec.stmt = rng_.Bernoulli(config.write_fraction) ? StatementType::kDml
                                                    : StatementType::kRead;
  spec.cpu_seconds = rng_.Exponential(config.mean_cpu_seconds);
  spec.io_ops = rng_.Exponential(config.mean_io_ops);
  spec.memory_mb = config.memory_mb;
  spec.result_rows = rng_.UniformInt(1, 20);
  spec.session.application = config.application;
  spec.session.user = config.user;
  spec.session.client_ip = config.client_ip;
  spec.session.session_id = session_counter_++;
  spec.sql_digest = "oltp_txn";

  // Distinct Zipf-hot keys, acquired in sorted order (real systems order
  // index accesses; deadlocks still arise from upgrades and interleaving
  // elsewhere, and generators can shuffle for deadlock experiments).
  std::unordered_set<LockKey> keys;
  while (static_cast<int>(keys.size()) < config.locks_per_txn) {
    keys.insert(static_cast<LockKey>(
        rng_.Zipf(kKeySpace, kZipfTheta)));
  }
  // Draw the write/read flags in sorted key order, not hash order: the
  // Bernoulli draws consume RNG state, so iterating the raw set would let
  // the hash function decide which key becomes a write.
  std::vector<LockKey> sorted_keys(keys.begin(), keys.end());
  std::sort(sorted_keys.begin(), sorted_keys.end());
  for (LockKey key : sorted_keys) {
    spec.locks.push_back(
        LockRequest{key, rng_.Bernoulli(config.write_fraction)});
  }
  return spec;
}

QuerySpec WorkloadGenerator::NextBi(const BiWorkloadConfig& config) {
  QuerySpec spec;
  spec.id = next_id_++;
  spec.kind = QueryKind::kBiQuery;
  spec.stmt = StatementType::kRead;
  spec.cpu_seconds = rng_.LogNormal(config.cpu_mu, config.cpu_sigma);
  spec.io_ops = spec.cpu_seconds * config.io_per_cpu *
                rng_.Uniform(0.6, 1.4);
  spec.memory_mb = std::max(config.min_memory_mb,
                            spec.cpu_seconds * config.memory_mb_per_cpu_second);
  spec.result_rows = std::max<int64_t>(
      1, static_cast<int64_t>(spec.cpu_seconds * kRowsPerCpuSecond));
  spec.session.application = config.application;
  spec.session.user = config.user;
  spec.session.client_ip = config.client_ip;
  spec.session.session_id = session_counter_++;
  spec.sql_digest = "bi_query";
  return spec;
}

QuerySpec WorkloadGenerator::NextUtility(const UtilityWorkloadConfig& config) {
  QuerySpec spec;
  spec.id = next_id_++;
  spec.kind = QueryKind::kUtility;
  spec.stmt = StatementType::kCall;
  spec.cpu_seconds = config.cpu_seconds * rng_.Uniform(0.8, 1.2);
  spec.io_ops = config.io_ops * rng_.Uniform(0.8, 1.2);
  spec.memory_mb = config.memory_mb;
  spec.result_rows = 1;
  spec.session.application = config.application;
  spec.session.user = config.user;
  spec.session.client_ip = config.client_ip;
  spec.session.session_id = session_counter_++;
  spec.sql_digest = "utility_op";
  return spec;
}

OpenLoopDriver::OpenLoopDriver(Simulation* sim, Rng* rng, double rate,
                               MakeSpec make, Submit submit)
    : sim_(sim),
      rng_(rng),
      rate_(rate),
      make_(std::move(make)),
      submit_(std::move(submit)) {
  assert(rate_ > 0.0);
}

void OpenLoopDriver::Start(double until) {
  until_ = until;
  running_ = true;
  ScheduleNext();
}

void OpenLoopDriver::Stop() {
  running_ = false;
  if (pending_ != 0) {
    sim_->Cancel(pending_);
    pending_ = 0;
  }
}

void OpenLoopDriver::ScheduleNext() {
  double gap = rng_->Exponential(1.0 / rate_);
  double when = sim_->Now() + gap;
  if (until_ > 0.0 && when > until_) {
    running_ = false;
    return;
  }
  pending_ = sim_->Schedule(gap, [this] {
    if (!running_) return;
    ++generated_;
    submit_(make_());
    ScheduleNext();
  });
}

ClosedLoopDriver::ClosedLoopDriver(Simulation* sim, Rng* rng, int clients,
                                   double mean_think_seconds, MakeSpec make,
                                   Submit submit)
    : sim_(sim),
      rng_(rng),
      clients_(clients),
      think_(mean_think_seconds),
      make_(std::move(make)),
      submit_(std::move(submit)),
      in_flight_(static_cast<size_t>(clients), 0) {}

void ClosedLoopDriver::Start() {
  running_ = true;
  for (int c = 0; c < clients_; ++c) {
    // Stagger initial submissions by a fraction of the think time.
    double delay = think_ > 0.0 ? rng_->Uniform(0.0, think_) : 0.0;
    sim_->Schedule(delay, [this, c] {
      if (running_) ClientSubmit(c);
    });
  }
}

void ClosedLoopDriver::Stop() { running_ = false; }

void ClosedLoopDriver::ClientSubmit(int client) {
  QuerySpec spec = make_();
  in_flight_[static_cast<size_t>(client)] = spec.id;
  ++submitted_;
  submit_(std::move(spec));
}

void ClosedLoopDriver::OnRequestFinished(QueryId id) {
  if (!running_) return;
  for (int c = 0; c < clients_; ++c) {
    if (in_flight_[static_cast<size_t>(c)] == id) {
      in_flight_[static_cast<size_t>(c)] = 0;
      double think = think_ > 0.0 ? rng_->Exponential(think_) : 0.0;
      sim_->Schedule(think, [this, c] {
        if (running_) ClientSubmit(c);
      });
      return;
    }
  }
}

void ReplayTrace(Simulation* sim, const std::vector<TraceEntry>& trace,
                 std::function<void(QuerySpec)> submit) {
  for (const TraceEntry& entry : trace) {
    QuerySpec spec = entry.spec;
    sim->ScheduleAt(entry.arrival_time,
                    [submit, spec] { submit(spec); });
  }
}

}  // namespace wlm
