#include "cluster/journey.h"

#include <algorithm>
#include <cstdio>

#include "cluster/cluster.h"
#include "common/format.h"

namespace wlm {

namespace {

std::string F6(double value) { return FormatFixed(value, 6); }

}  // namespace

double Journey::FinishTime() const {
  double finish = arrival;
  for (const JourneyLife& life : lives) {
    if (life.end >= 0.0) finish = std::max(finish, life.end);
  }
  return finish;
}

int Journey::OpenLives() const {
  int open = 0;
  for (const JourneyLife& life : lives) {
    if (life.end < 0.0) ++open;
  }
  return open;
}

JourneyLog::JourneyLog(size_t max_journeys)
    : max_journeys_(max_journeys < 1 ? 1 : max_journeys) {}

uint64_t JourneyLog::Begin(QueryId query, const std::string& workload,
                           double now) {
  if (const Journey* existing = Find(query)) {
    return existing->id;  // duplicate submit attempt
  }
  if (journeys_.size() >= max_journeys_) {
    ++dropped_;
    return 0;
  }
  Journey journey;
  journey.id = next_id_++;
  journey.query = query;
  journey.workload = workload;
  journey.arrival = now;
  by_query_.Insert(query, static_cast<uint32_t>(journeys_.size()));
  journeys_.push_back(std::move(journey));
  return journeys_.back().id;
}

Journey* JourneyLog::FindMutable(QueryId query) {
  const uint32_t index = by_query_.Find(query);
  return index == IdIndex::kNone ? nullptr : &journeys_[index];
}

const Journey* JourneyLog::Find(QueryId query) const {
  const uint32_t index = by_query_.Find(query);
  return index == IdIndex::kNone ? nullptr : &journeys_[index];
}

int JourneyLog::OpenLife(QueryId query, int shard, RouteCause cause,
                         int attempt, bool redispatch, double now,
                         int parent) {
  Journey* journey = FindMutable(query);
  if (journey == nullptr) return -1;
  JourneyLife life;
  life.index = static_cast<int>(journey->lives.size());
  // Parents always precede children, so the lives of a journey are a DAG
  // in topological order by construction.
  life.parent = parent < life.index ? parent : -1;
  life.cause = cause;
  life.shard = shard;
  life.attempt = attempt;
  life.redispatch = redispatch;
  life.start = now;
  journey->lives.push_back(std::move(life));
  return static_cast<int>(journey->lives.size()) - 1;
}

int JourneyLog::LatestLifeOnShard(QueryId query, int shard) const {
  const Journey* journey = Find(query);
  if (journey == nullptr) return -1;
  for (auto it = journey->lives.rbegin(); it != journey->lives.rend(); ++it) {
    if (it->shard == shard) return it->index;
  }
  return -1;
}

void JourneyLog::CloseLife(QueryId query, int shard, double now,
                           std::string_view outcome) {
  Journey* journey = FindMutable(query);
  if (journey == nullptr) return;
  for (auto it = journey->lives.rbegin(); it != journey->lives.rend(); ++it) {
    if (it->shard == shard && it->end < 0.0) {
      it->end = now;
      it->outcome = outcome;
      return;
    }
  }
}

void JourneyLog::MarkOutcome(QueryId query, int shard, double now,
                             std::string_view outcome) {
  Journey* journey = FindMutable(query);
  if (journey == nullptr) return;
  for (auto it = journey->lives.rbegin(); it != journey->lives.rend(); ++it) {
    if (it->shard == shard) {
      if (it->end < 0.0) it->end = now;
      it->outcome = outcome;
      return;
    }
  }
}

void WriteJourneysJsonl(const std::vector<Journey>& journeys,
                        std::ostream& out) {
  for (const Journey& journey : journeys) {
    for (const JourneyLife& life : journey.lives) {
      out << "{\"journey\":" << journey.id << ",\"query\":" << journey.query
          << ",\"workload\":\"" << journey.workload << "\",\"life\":"
          << life.index << ",\"parent\":" << life.parent << ",\"cause\":\""
          << RouteCauseToString(life.cause) << "\",\"shard\":" << life.shard
          << ",\"attempt\":" << life.attempt << ",\"redispatch\":"
          << (life.redispatch ? "true" : "false") << ",\"start\":"
          << F6(life.start) << ",\"end\":" << F6(life.end)
          << ",\"outcome\":\"" << life.outcome << "\",\"phase_sum\":"
          << F6(life.PhaseSum()) << ",\"profile_wall\":"
          << F6(life.profile_wall_seconds) << "}\n";
    }
  }
}

void WriteJourneysChromeTrace(const std::vector<Journey>& journeys,
                              std::ostream& out) {
  out << "[\n";
  bool first = true;
  for (const Journey& journey : journeys) {
    for (const JourneyLife& life : journey.lives) {
      const double end = life.end >= 0.0 ? life.end : life.start;
      if (!first) out << ",\n";
      first = false;
      // One slice per life; Chrome trace wants microseconds.
      out << "{\"ph\":\"X\",\"pid\":" << life.shard << ",\"tid\":"
          << journey.id << ",\"ts\":" << F6(life.start * 1e6) << ",\"dur\":"
          << F6((end - life.start) * 1e6) << ",\"name\":\"q" << journey.query
          << " life" << life.index << " " << life.outcome << "\",\"cat\":\""
          << RouteCauseToString(life.cause) << "\"}";
      if (life.parent >= 0) {
        const JourneyLife& parent =
            journey.lives[static_cast<size_t>(life.parent)];
        // Flow edge parent -> child, named by the routing cause. Ids must
        // be unique per edge: journey id and child life index are.
        const uint64_t flow = journey.id * 1000 +
                              static_cast<uint64_t>(life.index);
        out << ",\n{\"ph\":\"s\",\"pid\":" << parent.shard << ",\"tid\":"
            << journey.id << ",\"ts\":" << F6(parent.start * 1e6)
            << ",\"id\":" << flow << ",\"name\":\""
            << RouteCauseToString(life.cause) << "\",\"cat\":\"journey\"}";
        out << ",\n{\"ph\":\"f\",\"bp\":\"e\",\"pid\":" << life.shard
            << ",\"tid\":" << journey.id << ",\"ts\":" << F6(life.start * 1e6)
            << ",\"id\":" << flow << ",\"name\":\""
            << RouteCauseToString(life.cause) << "\",\"cat\":\"journey\"}";
      }
    }
  }
  out << "\n]\n";
}

std::string FormatJourneyAscii(const Journey& journey, int width) {
  if (width < 8) width = 8;
  std::string out = "journey " + std::to_string(journey.id) + " query " +
                    std::to_string(journey.query) + " [" + journey.workload +
                    "] arrival " + F6(journey.arrival) + "\n";
  const double span =
      std::max(journey.FinishTime() - journey.arrival, 1e-9);
  for (const JourneyLife& life : journey.lives) {
    const double end = life.end >= 0.0 ? life.end : journey.FinishTime();
    int from = static_cast<int>((life.start - journey.arrival) / span *
                                (width - 1));
    int to = static_cast<int>((end - journey.arrival) / span * (width - 1));
    from = std::clamp(from, 0, width - 1);
    to = std::clamp(to, from, width - 1);
    std::string bar(static_cast<size_t>(width), '.');
    for (int i = from; i <= to; ++i) bar[static_cast<size_t>(i)] = '#';
    char head[96];
    std::snprintf(head, sizeof(head), "  life %-2d shard %-2d %-11s ",
                  life.index, life.shard, RouteCauseToString(life.cause));
    out += head;
    out += '|';
    out += bar;
    out += "| ";
    out += F6(life.start) + " -> " + (life.end >= 0.0 ? F6(life.end) : "open");
    out += ' ';
    out += life.outcome.empty() ? std::string_view("open") : life.outcome;
    if (life.parent >= 0) {
      out += " <-life" + std::to_string(life.parent);
    }
    out += '\n';
  }
  return out;
}

}  // namespace wlm
