#include "engine/types.h"

namespace wlm {

const char* QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kOltpTransaction:
      return "OLTP";
    case QueryKind::kBiQuery:
      return "BI";
    case QueryKind::kUtility:
      return "UTILITY";
  }
  return "?";
}

const char* OutcomeKindToString(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kCompleted:
      return "completed";
    case OutcomeKind::kKilled:
      return "killed";
    case OutcomeKind::kAbortedDeadlock:
      return "aborted-deadlock";
    case OutcomeKind::kSuspended:
      return "suspended";
  }
  return "?";
}

}  // namespace wlm
