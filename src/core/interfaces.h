#ifndef WLM_CORE_INTERFACES_H_
#define WLM_CORE_INTERFACES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/request.h"
#include "core/taxonomy.h"
#include "engine/monitor.h"

namespace wlm {

class WorkloadManager;

/// Workload characterization: maps an arriving request to a defined
/// workload. Implementations: static rule/criteria classifiers and the
/// ML-based dynamic classifier.
class RequestClassifier {
 public:
  virtual ~RequestClassifier() = default;
  /// Returns the workload name for the request (must be a defined
  /// workload; the manager falls back to its default workload otherwise).
  virtual std::string Classify(const Request& request,
                               const WorkloadManager& manager) = 0;
  virtual TechniqueInfo info() const = 0;
};

/// Admission control: can veto a request at arrival (reject) and can hold
/// queued requests back from dispatch (queue-for-later-admission). The
/// feedback-style controllers ([26], [79][80]) update their state from
/// monitor samples.
class AdmissionController {
 public:
  virtual ~AdmissionController() = default;
  /// Arrival-time decision. Return OK to accept into the system,
  /// Status::Rejected(reason) to refuse outright.
  [[nodiscard]] virtual Status OnArrival(const Request& request,
                           const WorkloadManager& manager) {
    (void)request;
    (void)manager;
    return Status::OK();
  }
  /// Dispatch-time gate: false holds the request in the wait queue.
  [[nodiscard]] virtual bool AllowDispatch(const Request& request,
                             const WorkloadManager& manager) {
    (void)request;
    (void)manager;
    return true;
  }
  /// Periodic hook at each monitor sample.
  virtual void OnSample(const SystemIndicators& indicators,
                        WorkloadManager& manager) {
    (void)indicators;
    (void)manager;
  }
  /// A property of the class, not of its state: the manager reads
  /// info().name once, when the controller is added, and labels every
  /// refusal with it.
  virtual TechniqueInfo info() const = 0;
};

/// A scheduler's preference between two waiting requests, when that
/// preference never changes while they wait. The manager serves a declared
/// discipline from an index it updates as the queue changes; kOrder makes
/// it call Scheduler::Order every dispatch round instead.
enum class QueueDiscipline {
  kOrder,     // no fixed preference: ask Order each round
  kArrival,   // the wait queue's order (FIFO)
  kPriority,  // higher business priority first, the queue's order within
};

/// Scheduling: decides the dispatch order of queued requests and (for MPL
/// managers) how many may enter the engine. A scheduler whose preference
/// is fixed declares it through discipline(), and the manager then
/// dispatches without calling Order; every other scheduler, and any
/// wrapper that forwards Order, is asked for a fresh Order each round.
class Scheduler {
 public:
  /// `mpl` is the concurrency limit ConcurrencyLimit reports by default;
  /// <= 0 leaves concurrency uncapped.
  explicit Scheduler(int mpl = 0) : mpl_(mpl) {}
  virtual ~Scheduler() = default;
  /// Orders the given queued requests by dispatch preference (front first).
  /// Returns ids from `queued`; the manager dispatches from the front while
  /// free slots and gates allow, skipping unknown and repeated ids. For a
  /// declared discipline it is the reference the manager's index matches.
  virtual std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                                     const WorkloadManager& manager) = 0;
  /// The fixed preference Order implements, if any. A property of the
  /// class: the manager reads it once, when the scheduler is installed.
  virtual QueueDiscipline discipline() const { return QueueDiscipline::kOrder; }
  /// Upper bound on engine concurrency this round; the manager dispatches
  /// at most (limit - running) new requests and does not call Order while
  /// none may go. Return <= 0 for "no limit". Defaults to the MPL.
  virtual int ConcurrencyLimit(const WorkloadManager& manager) {
    (void)manager;
    return mpl_;
  }
  virtual void OnSample(const SystemIndicators& indicators,
                        WorkloadManager& manager) {
    (void)indicators;
    (void)manager;
  }
  virtual TechniqueInfo info() const = 0;

 protected:
  int mpl() const { return mpl_; }
  void set_mpl(int mpl) { mpl_ = mpl; }

 private:
  int mpl_;
};

/// Execution control: inspects running queries at each monitor sample and
/// acts through the manager (kill, throttle, reprioritize, suspend...).
class ExecutionController {
 public:
  virtual ~ExecutionController() = default;
  virtual void OnSample(const SystemIndicators& indicators,
                        WorkloadManager& manager) = 0;
  /// Request `id` ended and is being retired: drop what was kept about it,
  /// since a later request may reuse the id.
  virtual void OnRequestEnd(QueryId id) { (void)id; }
  virtual TechniqueInfo info() const = 0;
};

}  // namespace wlm

#endif  // WLM_CORE_INTERFACES_H_
