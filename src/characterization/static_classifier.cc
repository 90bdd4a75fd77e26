#include "characterization/static_classifier.h"

#include "core/workload_manager.h"

namespace wlm {

bool ClassificationRule::Matches(const Request& request) const {
  const QuerySpec& spec = request.spec;
  if (application && spec.session.application != *application) return false;
  if (user && spec.session.user != *user) return false;
  if (client_ip && spec.session.client_ip != *client_ip) return false;
  if (stmt && spec.stmt != *stmt) return false;
  if (kind && spec.kind != *kind) return false;
  double timerons = request.plan.est_timerons;
  if (timerons < min_est_timerons || timerons > max_est_timerons) {
    return false;
  }
  double rows = static_cast<double>(request.plan.est_rows);
  if (rows < min_est_rows || rows > max_est_rows) return false;
  return true;
}

void StaticClassifier::AddRule(ClassificationRule rule) {
  rules_.push_back(std::move(rule));
}

void StaticClassifier::AddCriteriaFunction(CriteriaFunction fn) {
  criteria_.push_back(std::move(fn));
}

std::string StaticClassifier::Classify(const Request& request,
                                       const WorkloadManager& manager) {
  (void)manager;
  for (const CriteriaFunction& fn : criteria_) {
    std::optional<std::string> result = fn(request);
    if (result) return *result;
  }
  for (const ClassificationRule& rule : rules_) {
    if (rule.Matches(request)) return rule.workload;
  }
  return kDefaultWorkload;
}

TechniqueInfo StaticClassifier::info() const {
  TechniqueInfo info;
  info.name = "Static workload definition";
  info.technique_class = TechniqueClass::kWorkloadCharacterization;
  info.subclass = TechniqueSubclass::kStaticCharacterization;
  info.description =
      "Maps arriving requests to pre-defined workloads by origin "
      "attributes, statement type and predictive cost elements; "
      "user-written criteria functions take precedence.";
  info.source = "DB2 WLM [30], SQL Server Resource Governor [50], "
                "Teradata DWM [72]";
  return info;
}

}  // namespace wlm
