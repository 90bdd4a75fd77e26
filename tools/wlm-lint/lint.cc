#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "symbol_graph.h"

namespace wlm::lint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Path helpers. Rules are scoped by directory component so the linter works
// whether it is handed "src", "/abs/path/src", or a single file.
// ---------------------------------------------------------------------------

std::vector<std::string> Components(const std::string& path) {
  std::vector<std::string> out;
  std::string part;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!part.empty()) out.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  if (!part.empty()) out.push_back(part);
  return out;
}

bool HasComponent(const std::string& path, const std::string& name) {
  for (const std::string& c : Components(path)) {
    if (c == name) return true;
  }
  return false;
}

std::string Basename(const std::string& path) {
  std::vector<std::string> parts = Components(path);
  return parts.empty() ? std::string() : parts.back();
}

bool IsHeader(const std::string& path) { return path.ends_with(".h"); }
bool IsSource(const std::string& path) { return path.ends_with(".cc"); }

std::string Stem(const std::string& path) {
  std::string base = Basename(path);
  size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

// ---------------------------------------------------------------------------
// Suppressions: `// wlm-lint: allow(RULE-ID) reason`. The directive covers
// the comment's own line span, chains through any directly following
// comment-only lines, and lands on the next code line — so a trailing
// comment, a comment on the line above, a stacked explanation block, and a
// trailing comment on an `#include` line all suppress the flagged
// construct. A directive without a reason is itself a finding (A0) —
// suppressions must be justified.
// ---------------------------------------------------------------------------

struct Suppressions {
  std::map<int, std::set<std::string>> allowed;  // line -> rule ids
  std::vector<Finding> malformed;

  bool Allows(int line, const std::string& rule) const {
    auto it = allowed.find(line);
    return it != allowed.end() && it->second.count(rule) > 0;
  }
};

Suppressions ParseSuppressions(const std::string& path,
                               const LexedFile& file) {
  // Line classification: a directive extends past its own comment only
  // through comment-only lines, then covers the first code line it meets.
  std::set<int> code_lines;
  for (const Token& t : file.tokens) code_lines.insert(t.line);
  for (const IncludeDirective& inc : file.includes) code_lines.insert(inc.line);
  std::set<int> comment_lines;
  for (const Comment& c : file.comments) {
    for (int l = c.line; l <= c.end_line; ++l) comment_lines.insert(l);
  }

  Suppressions out;
  for (const Comment& comment : file.comments) {
    size_t pos = comment.text.find("wlm-lint:");
    while (pos != std::string::npos) {
      size_t open = comment.text.find("allow(", pos);
      if (open == std::string::npos) break;
      size_t close = comment.text.find(')', open);
      if (close == std::string::npos) break;
      std::string rule = comment.text.substr(open + 6, close - open - 6);
      // Reason = non-whitespace text after the closing paren.
      size_t reason = comment.text.find_first_not_of(" \t", close + 1);
      if (rule.empty() || reason == std::string::npos) {
        out.malformed.push_back(
            {path, comment.line, "A0",
             "suppression without a rule id or reason: write "
             "`// wlm-lint: allow(RULE-ID) reason`"});
      } else {
        for (int line = comment.line; line <= comment.end_line; ++line) {
          out.allowed[line].insert(rule);
        }
        int next = comment.end_line + 1;
        while (comment_lines.count(next) > 0 && code_lines.count(next) == 0) {
          out.allowed[next].insert(rule);
          ++next;
        }
        out.allowed[next].insert(rule);
      }
      pos = comment.text.find("wlm-lint:", close);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

bool TextIs(const std::vector<Token>& toks, size_t i, const char* text) {
  return i < toks.size() && toks[i].text == text;
}

/// Index just past the `>` matching the `<` at `open` (which must be "<").
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "<") ++depth;
    if (toks[i].text == ">" && --depth == 0) return i + 1;
    if (toks[i].text == ";") break;  // malformed; bail
  }
  return toks.size();
}

/// Index of the `)`/`}` matching the opener at `open`.
size_t MatchDelim(const std::vector<Token>& toks, size_t open,
                  const char* open_text, const char* close_text) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text && --depth == 0) return i;
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// D1 — nondeterminism sources. The vocabulary and use filters live in
// symbol_graph.{h,cc} (EntropyUseAt) so the flow-aware taint pass T1 and
// this per-token rule can never disagree on what counts as entropy.
// ---------------------------------------------------------------------------

void RunD1(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  // src/common hosts the seeded Rng wrapper — the one place allowed to
  // name entropy primitives (it doesn't today, but the wrapper is where
  // a platform-entropy escape hatch would live).
  if (HasComponent(path, "common")) return;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    std::string text = EntropyUseAt(toks, i);
    if (text.empty()) continue;
    if (allow.Allows(toks[i].line, "D1")) continue;
    findings->push_back(
        {path, toks[i].line, "D1",
         "nondeterminism source '" + text +
             "': all randomness/time must flow through the seeded wlm::Rng "
             "and the simulation clock (src/common/rng.h, src/sim/)"});
  }
}

// ---------------------------------------------------------------------------
// D2 — unordered-container iteration feeding an emission/selection surface.
// ---------------------------------------------------------------------------

bool IsUnorderedTypeName(const std::string& text) {
  return text == "unordered_map" || text == "unordered_set" ||
         text == "unordered_multimap" || text == "unordered_multiset";
}

/// Call surfaces whose *order* is observable: event/metric/trace emission,
/// query selection/actions, and seeded-RNG draws (consuming draws in hash
/// order silently reshuffles every downstream random decision).
const std::set<std::string>& OrderSensitiveSurfaces() {
  static const std::set<std::string> kSet = {
      // emission
      "Append", "LogEvent", "LogFaultEvent", "Emit", "RecordEvent",
      "AddInstant", "BeginSpan", "EndSpan", "OnEvent", "Observe",
      "Increment", "WritePrometheus", "WriteEvent", "Export",
      // selection / actions on queries
      "Kill", "KillRequest", "Suspend", "SuspendRequest", "Resume",
      "ResumeRequest", "Abort", "AbortRequestByFault", "ThrottleRequest",
      "PauseRequest", "Dispatch", "DispatchWithPlan", "Submit",
      "SubmitWithPlan",
      // seeded RNG draws
      "Uniform", "Uniform01", "UniformInt", "Bernoulli", "Exponential",
      "Normal", "LogNormal", "Poisson", "Zipf", "BoundedPareto",
      "WeightedIndex", "Fork",
  };
  return kSet;
}

void RunD2(const std::string& path, const LexedFile& file,
           const std::set<std::string>& unordered_vars,
           const Suppressions& allow, std::vector<Finding>* findings) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "for") continue;
    if (!TextIs(toks, i + 1, "(")) continue;
    size_t close = MatchDelim(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;

    // Is the loop over an unordered container?
    std::string over;
    // Range-for: `:` at paren depth 1 (`::` lexes as its own token).
    size_t colon = toks.size();
    {
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") --depth;
        if (depth == 1 && toks[j].text == ":") {
          colon = j;
          break;
        }
      }
    }
    if (colon < close) {
      for (size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind != TokKind::kIdent) continue;
        if (unordered_vars.count(toks[j].text) > 0 ||
            IsUnorderedTypeName(toks[j].text)) {
          over = toks[j].text;
          break;
        }
      }
    } else {
      // Classic loop: `var.begin()` / `var.cbegin()` over an unordered var.
      for (size_t j = i + 2; j + 2 < close; ++j) {
        if (toks[j].kind == TokKind::kIdent &&
            unordered_vars.count(toks[j].text) > 0 &&
            (toks[j + 1].text == "." || toks[j + 1].text == "->") &&
            (toks[j + 2].text == "begin" || toks[j + 2].text == "cbegin")) {
          over = toks[j].text;
          break;
        }
      }
    }
    if (over.empty()) continue;

    // Loop body: a braced block or a single statement.
    size_t body_begin = close + 1;
    size_t body_end;
    if (TextIs(toks, body_begin, "{")) {
      body_end = MatchDelim(toks, body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && toks[body_end].text != ";") ++body_end;
    }

    for (size_t j = body_begin; j < body_end && j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::kIdent) continue;
      if (OrderSensitiveSurfaces().count(toks[j].text) == 0) continue;
      if (!TextIs(toks, j + 1, "(")) continue;
      if (allow.Allows(toks[i].line, "D2")) break;
      findings->push_back(
          {path, toks[i].line, "D2",
           "loop over unordered container '" + over + "' calls '" +
               toks[j].text +
               "' — hash iteration order is implementation-defined; take an "
               "id-sorted snapshot first (pattern: fault_injector.cc)"});
      break;  // one finding per loop
    }
  }
}

// ---------------------------------------------------------------------------
// D3 — sim clock arithmetic hygiene.
// ---------------------------------------------------------------------------

void RunD3(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  if (!HasComponent(path, "sim")) return;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == "float") {
      if (!allow.Allows(toks[i].line, "D3")) {
        findings->push_back(
            {path, toks[i].line, "D3",
             "float in the simulation clock path: use double (SimTime) — "
             "32-bit accumulation drifts across replays"});
      }
      continue;
    }
    if (toks[i].text != "now_") continue;
    bool bad = TextIs(toks, i + 1, "+=") || TextIs(toks, i + 1, "-=") ||
               (TextIs(toks, i + 1, "=") && TextIs(toks, i + 2, "now_"));
    if (bad && !allow.Allows(toks[i].line, "D3")) {
      findings->push_back(
          {path, toks[i].line, "D3",
           "sim clock advanced by accumulation: assign absolute event "
           "timestamps (`now_ = event.when`), never `now_ += dt` — repeated "
           "rounding breaks bit-exact replay"});
    }
  }
}

// ---------------------------------------------------------------------------
// H1 — [[nodiscard]] on bool/Status/Result-returning public APIs in
// src/engine and src/core headers.
// ---------------------------------------------------------------------------

bool IsDeclModifier(const std::string& text) {
  return text == "virtual" || text == "static" || text == "inline" ||
         text == "constexpr" || text == "explicit";
}

void RunH1(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  if (!IsHeader(path)) return;
  if (!HasComponent(path, "engine") && !HasComponent(path, "core")) return;
  const std::vector<Token>& toks = file.tokens;

  struct ClassCtx {
    int body_depth;
    std::string access;
  };
  std::vector<ClassCtx> stack;
  int depth = 0;
  bool pending_class = false;
  std::string pending_access;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.text == "{") {
      ++depth;
      if (pending_class) {
        stack.push_back({depth, pending_access});
        pending_class = false;
      }
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty() && stack.back().body_depth == depth) stack.pop_back();
      --depth;
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;

    if ((t.text == "class" || t.text == "struct") &&
        !(i > 0 && toks[i - 1].text == "enum")) {
      // Definition (reaches `{`) vs forward declaration / template
      // parameter (reaches `;` or `>` first).
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "{") {
          pending_class = true;
          pending_access = t.text == "class" ? "private" : "public";
          break;
        }
        if (toks[j].text == ";" || toks[j].text == ">") break;
      }
      continue;
    }

    bool in_class = !stack.empty() && stack.back().body_depth == depth;
    if (in_class &&
        (t.text == "public" || t.text == "private" || t.text == "protected") &&
        TextIs(toks, i + 1, ":")) {
      stack.back().access = t.text;
      continue;
    }

    if (!in_class || stack.back().access != "public") continue;
    if (t.text != "bool" && t.text != "Status" && t.text != "Result") continue;

    // Function name directly after the return type (Result skips its
    // template arguments).
    size_t name = i + 1;
    if (t.text == "Result") {
      if (!TextIs(toks, i + 1, "<")) continue;
      name = SkipTemplateArgs(toks, i + 1);
    }
    if (name >= toks.size() || toks[name].kind != TokKind::kIdent) continue;
    if (toks[name].text == "operator") continue;
    if (!TextIs(toks, name + 1, "(")) continue;

    // Walk back over modifiers and attributes to confirm this is the
    // start of a member declaration and whether [[nodiscard]] is present.
    bool has_nodiscard = false;
    bool is_friend = false;
    size_t k = i;
    while (k > 0) {
      const std::string& prev = toks[k - 1].text;
      if (IsDeclModifier(prev)) {
        --k;
        continue;
      }
      if (prev == "friend") {
        is_friend = true;
        --k;
        continue;
      }
      if (prev == "]]") {
        size_t open = k - 1;
        while (open > 0 && toks[open - 1].text != "[[") --open;
        for (size_t a = open; a < k - 1; ++a) {
          if (toks[a].text == "nodiscard") has_nodiscard = true;
        }
        k = open > 0 ? open - 1 : 0;
        continue;
      }
      break;
    }
    bool decl_start = k == 0 || toks[k - 1].text == ";" ||
                      toks[k - 1].text == "{" || toks[k - 1].text == "}" ||
                      toks[k - 1].text == ":";
    if (!decl_start || is_friend || has_nodiscard) continue;
    if (allow.Allows(t.line, "H1")) continue;
    findings->push_back(
        {path, t.line, "H1",
         "public " + t.text + "-returning API '" + toks[name].text +
             "' lacks [[nodiscard]]: silently dropped Status/bool results "
             "hide admission/kill/suspend failures"});
  }
}

// ---------------------------------------------------------------------------
// H2 — include hygiene.
// ---------------------------------------------------------------------------

void RunH2(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  if (IsHeader(path)) {
    for (const IncludeDirective& inc : file.includes) {
      if (inc.angled && inc.path == "iostream" &&
          !allow.Allows(inc.line, "H2")) {
        findings->push_back(
            {path, inc.line, "H2",
             "<iostream> in a header injects the static ios initializer "
             "into every TU: include <ostream>/<istream> in the header and "
             "<iostream> only in .cc files"});
      }
    }
    return;
  }
  if (!IsSource(path) || file.includes.empty()) return;
  std::string expected = Stem(path) + ".h";
  bool has_self = false;
  for (const IncludeDirective& inc : file.includes) {
    if (!inc.angled && Basename(inc.path) == expected) has_self = true;
  }
  const IncludeDirective& first = file.includes.front();
  if (has_self && (first.angled || Basename(first.path) != expected) &&
      !allow.Allows(first.line, "H2")) {
    findings->push_back(
        {path, first.line, "H2",
         "self header must be the first include (proves '" + expected +
             "' is self-contained)"});
  }
}

// ---------------------------------------------------------------------------
// P1 — phase-transition emits must go through the Telemetry facade.
// ---------------------------------------------------------------------------

void RunP1(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  // Scope: the engine-side layers. The per-query latency decomposition
  // conserves wall time only because every phase transition flows through
  // one facade (WorkloadManager -> Telemetry); an engine or controller
  // component writing the control-plane EventLog directly bypasses the
  // profile store and the flight recorder, so its transitions vanish from
  // post-mortems and the conservation invariant silently decays.
  if (!HasComponent(path, "engine") && !HasComponent(path, "execution") &&
      !HasComponent(path, "admission") && !HasComponent(path, "scheduling") &&
      !HasComponent(path, "overload") && !HasComponent(path, "faults")) {
    return;
  }
  for (const IncludeDirective& inc : file.includes) {
    if (!inc.angled && Basename(inc.path) == "event_log.h" &&
        !allow.Allows(inc.line, "P1")) {
      findings->push_back(
          {path, inc.line, "P1",
           "engine-layer component includes the control-plane event log: "
           "emit phase transitions through the Telemetry facade "
           "(WorkloadManager hooks) so profiles, metrics and the flight "
           "recorder all see them"});
    }
  }
  for (const Token& t : file.tokens) {
    if (t.kind != TokKind::kIdent || t.text != "EventLog") continue;
    if (allow.Allows(t.line, "P1")) continue;
    findings->push_back(
        {path, t.line, "P1",
         "direct EventLog use in an engine-layer component bypasses the "
         "Telemetry facade: route the emit through WorkloadManager's "
         "telemetry hooks (or annotate the exception with `// wlm-lint: "
         "allow(P1) reason`)"});
  }
}

// ---------------------------------------------------------------------------
// Q1 — wait-queue containers must declare an explicit capacity.
// ---------------------------------------------------------------------------

std::string Lowered(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool IsQueueContainerType(const std::string& text) {
  return text == "deque" || text == "queue" || text == "priority_queue" ||
         text == "list";
}

/// A vector is only treated as a wait queue when its name says so.
bool LooksLikeWaitQueueName(const std::string& name) {
  std::string lower = Lowered(name);
  return lower.find("queue") != std::string::npos ||
         lower.find("pending") != std::string::npos ||
         lower.find("backlog") != std::string::npos ||
         lower.find("waiting") != std::string::npos;
}

void RunQ1(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  // Scope: the layers that hold requests waiting for dispatch. An
  // unbounded wait queue is the overload-collapse fuel tank — under a
  // surge it absorbs arrivals until every queued request is already past
  // its deadline, and goodput stays at zero long after the surge ends.
  if (!HasComponent(path, "admission") && !HasComponent(path, "scheduling") &&
      !HasComponent(path, "core") && !HasComponent(path, "overload")) {
    return;
  }
  const std::vector<Token>& toks = file.tokens;
  // A declared capacity anywhere in the file (a `*_capacity` constant or
  // option, or a `max_*capacity*` bound) counts as bounding its queues.
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent &&
        Lowered(t.text).find("capacity") != std::string::npos) {
      return;
    }
  }
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    bool queue_type = IsQueueContainerType(toks[i].text);
    bool vector_type = toks[i].text == "vector";
    if (!queue_type && !vector_type) continue;
    if (!TextIs(toks, i + 1, "<")) continue;
    size_t j = SkipTemplateArgs(toks, i + 1);
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "&" ||
            toks[j].text == "*")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    const std::string& name = toks[j].text;
    // Members only (trailing underscore); locals and parameters are
    // transient and bounded by their scope.
    if (name.size() < 2 || name.back() != '_') continue;
    if (TextIs(toks, j + 1, "(")) continue;  // function declaration
    if (vector_type && !LooksLikeWaitQueueName(name)) continue;
    if (allow.Allows(toks[i].line, "Q1")) continue;
    findings->push_back(
        {path, toks[i].line, "Q1",
         "wait-queue container '" + name +
             "' declares no capacity: add an explicit *_capacity bound "
             "(enforced where the queue grows) or annotate the intentional "
             "unbounded queue with `// wlm-lint: allow(Q1) reason`"});
  }
}

// ---------------------------------------------------------------------------
// S1 — mutable static storage in library layers.
// ---------------------------------------------------------------------------

void RunS1(const std::string& path, const LexedFile& file,
           const Suppressions& allow, std::vector<Finding>* findings) {
  // Scope: everything under src/. The cluster layer multi-instantiates
  // every engine/telemetry/overload object (one stack per shard); any
  // mutable namespace-scope, function-local-static or class-static
  // storage is shared across shards and silently couples them — cached
  // metric handles, memoized registries and the like must be members.
  if (!HasComponent(path, "src")) return;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "static") continue;
    // Walk to the declaration's first structural delimiter. `(` first
    // means a static function (stateless); const/constexpr/constinit
    // anywhere before it means immutable storage. Everything else is
    // mutable static state.
    bool immutable = false;
    bool function_like = false;
    std::string name;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& text = toks[j].text;
      if (text == "<") {
        j = SkipTemplateArgs(toks, j) - 1;
        continue;
      }
      if (text == "const" || text == "constexpr" || text == "constinit") {
        immutable = true;
      }
      if (text == "(") {
        function_like = true;
        break;
      }
      if (text == ";" || text == "=" || text == "{") break;
      if (toks[j].kind == TokKind::kIdent) name = text;
    }
    if (function_like || immutable) continue;
    if (allow.Allows(toks[i].line, "S1")) continue;
    findings->push_back(
        {path, toks[i].line, "S1",
         "mutable static storage '" + name +
             "' is shared across every engine/shard instance: the cluster "
             "layer multi-instantiates this component, so move the state "
             "into a member (or justify with `// wlm-lint: allow(S1) "
             "reason`)"});
  }
}

// ---------------------------------------------------------------------------
// T1 — clock/RNG taint propagation over the project call graph. D1 flags
// the entropy use itself; T1 flags every function that *transitively*
// reaches one through calls, so wrapping `time()` one level deep no longer
// hides it. `// wlm-lint: allow(D1)` on the use marks a sanctioned wrapper
// (no seeding); `allow(T1)` on a definition or call site stops propagation
// there. src/common is the sanctioned boundary and never seeds or taints.
// Resolution is by bare name, so same-named functions over-approximate —
// the price of no libclang, and conservative in the right direction.
// ---------------------------------------------------------------------------

void RunT1(const SymbolGraph& graph,
           const std::map<std::string, Suppressions>& supp,
           std::vector<Finding>* findings) {
  struct Taint {
    std::string source;       // the entropy entity ("time", "mt19937", ...)
    std::string source_path;  // where the seed use lives
    int source_line = 0;
    std::vector<std::string> chain;  // this function first, seed last
    int depth = 0;                   // 0 = direct use (D1's finding, not ours)
  };
  const std::vector<FunctionDef>& fns = graph.functions;
  auto allows = [&](const std::string& path, int line, const char* rule) {
    auto it = supp.find(path);
    return it != supp.end() && it->second.Allows(line, rule);
  };

  std::map<size_t, Taint> taint;        // function index -> taint info
  std::map<std::string, size_t> rep;    // tainted name -> representative fn
  std::set<size_t> sanctioned;          // allow(T1)'d call-through functions
  for (size_t i = 0; i < fns.size(); ++i) {
    const FunctionDef& fn = fns[i];
    if (HasComponent(fn.path, "common")) continue;
    for (const CallSite& use : fn.entropy_uses) {
      if (allows(fn.path, use.line, "D1") || allows(fn.path, use.line, "T1")) {
        continue;  // sanctioned wrapper: does not seed
      }
      taint[i] = {use.callee, fn.path, use.line, {fn.name}, 0};
      if (rep.count(fn.name) == 0) rep[fn.name] = i;
      break;
    }
  }

  // Fixpoint. Functions iterate in (path, line) order every round, so the
  // representative chosen for a name — and therefore the reported chain —
  // is deterministic.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < fns.size(); ++i) {
      if (taint.count(i) > 0 || sanctioned.count(i) > 0) continue;
      const FunctionDef& fn = fns[i];
      if (HasComponent(fn.path, "common")) continue;
      for (const CallSite& call : fn.calls) {
        auto it = rep.find(call.callee);
        if (it == rep.end()) continue;
        if (allows(fn.path, fn.line, "T1") ||
            allows(fn.path, call.line, "T1")) {
          sanctioned.insert(i);
          break;
        }
        const Taint& src = taint.at(it->second);
        Taint t;
        t.source = src.source;
        t.source_path = src.source_path;
        t.source_line = src.source_line;
        t.chain.push_back(fn.name);
        t.chain.insert(t.chain.end(), src.chain.begin(), src.chain.end());
        t.depth = src.depth + 1;
        taint.emplace(i, std::move(t));
        if (rep.count(fn.name) == 0) rep[fn.name] = i;
        changed = true;
        break;
      }
    }
  }

  for (const auto& [i, t] : taint) {
    if (t.depth == 0) continue;  // the direct use is already a D1 finding
    const FunctionDef& fn = fns[i];
    std::string chain;
    for (const std::string& name : t.chain) {
      if (!chain.empty()) chain += " -> ";
      chain += name;
    }
    findings->push_back(
        {fn.path, fn.line, "T1",
         "'" + fn.name + "' transitively reaches nondeterminism source '" +
             t.source + "' (" + t.source_path + ":" +
             std::to_string(t.source_line) + ") via " + chain +
             " — route randomness/time through the seeded wlm::Rng and the "
             "sim clock, or bless a deliberate wrapper with `// wlm-lint: "
             "allow(T1) reason`"});
  }
}

// ---------------------------------------------------------------------------
// T2 — layering. The declared layer DAG (tools/wlm-lint/layers.toml) maps
// each module (first directory under src/) to a rank; a file may include
// across modules only strictly downward. Include cycles are rejected even
// without a layers file. Suppression point: the offending #include line.
// ---------------------------------------------------------------------------

void RunT2(const SymbolGraph& graph, const std::map<std::string, int>& layers,
           const std::map<std::string, Suppressions>& supp,
           std::vector<Finding>* findings) {
  auto allows = [&](const std::string& path, int line) {
    auto it = supp.find(path);
    return it != supp.end() && it->second.Allows(line, "T2");
  };

  if (!layers.empty()) {
    std::set<std::string> unknown_reported;
    for (const auto& [from_idx, edges] : graph.resolved_includes) {
      const ProjectFile& from = graph.files[from_idx];
      if (from.module.empty()) continue;
      for (const auto& [to_idx, line] : edges) {
        const ProjectFile& to = graph.files[to_idx];
        if (to.module.empty() || to.module == from.module) continue;
        auto fr = layers.find(from.module);
        auto tr = layers.find(to.module);
        if (fr == layers.end() || tr == layers.end()) {
          const std::string& missing =
              fr == layers.end() ? from.module : to.module;
          if (unknown_reported.insert(missing).second &&
              !allows(from.path, line)) {
            findings->push_back(
                {from.path, line, "T2",
                 "module '" + missing +
                     "' has no layer rank — add it to "
                     "tools/wlm-lint/layers.toml so the layer DAG stays "
                     "total"});
          }
          continue;
        }
        if (tr->second >= fr->second && !allows(from.path, line)) {
          findings->push_back(
              {from.path, line, "T2",
               "layering violation: '" + from.module + "' (layer " +
                   std::to_string(fr->second) + ") includes '" +
                   to.module_path + "' from layer " +
                   std::to_string(tr->second) + " ('" + to.module +
                   "') — modules may only include strictly lower layers; "
                   "invert the dependency behind an interface owned by the "
                   "lower layer"});
        }
      }
    }
  }

  // Include cycles, independent of any layers file. DFS over the resolved
  // include graph; files and edges are already in deterministic order.
  auto display = [&](const ProjectFile& f) {
    return f.module_path.empty() ? f.path : f.module_path;
  };
  std::vector<int> color(graph.files.size(), 0);  // 0 white, 1 grey, 2 black
  std::vector<size_t> chain;
  std::function<void(size_t)> dfs = [&](size_t u) {
    color[u] = 1;
    chain.push_back(u);
    auto it = graph.resolved_includes.find(u);
    if (it != graph.resolved_includes.end()) {
      for (const auto& [v, line] : it->second) {
        if (color[v] == 1) {
          size_t start = 0;
          while (start < chain.size() && chain[start] != v) ++start;
          std::string cyc;
          for (size_t k = start; k < chain.size(); ++k) {
            cyc += display(graph.files[chain[k]]);
            cyc += " -> ";
          }
          cyc += display(graph.files[v]);
          if (!allows(graph.files[u].path, line)) {
            findings->push_back(
                {graph.files[u].path, line, "T2",
                 "include cycle: " + cyc +
                     " — break it with a forward declaration or an "
                     "extracted interface header"});
          }
        } else if (color[v] == 0) {
          dfs(v);
        }
      }
    }
    chain.pop_back();
    color[u] = 2;
  };
  for (size_t u = 0; u < graph.files.size(); ++u) {
    if (color[u] == 0) dfs(u);
  }
}

// ---------------------------------------------------------------------------
// T3 — telemetry registry consistency. Every wlm_* metric emitted
// (GetCounter/GetGauge/GetHistogram) must be registered (SetHelp) and vice
// versa; every WlmEventType enumerator must be emitted somewhere outside
// its declaring file and named by WlmEventTypeToString. Composed metric
// names (`std::string("wlm_requests_") + outcome`) surface as prefixes
// ending in '_' and match registered names by prefix.
// ---------------------------------------------------------------------------

void RunT3(const SymbolGraph& graph,
           const std::map<std::string, Suppressions>& supp,
           std::vector<Finding>* findings) {
  auto allows = [&](const std::string& path, int line) {
    auto it = supp.find(path);
    return it != supp.end() && it->second.Allows(line, "T3");
  };

  std::set<std::string> registered;
  std::set<std::string> emitted_exact;
  std::set<std::string> emitted_prefix;
  for (const MetricRef& ref : graph.metric_refs) {
    if (ref.registered) {
      registered.insert(ref.name);
    } else if (!ref.name.empty() && ref.name.back() == '_') {
      emitted_prefix.insert(ref.name);
    } else {
      emitted_exact.insert(ref.name);
    }
  }

  // Federate() derives wlm_cluster_* families from per-shard
  // wlm_* families at runtime (prefix swap), so a cluster-prefixed name
  // is satisfied in either direction by its per-shard twin: the twin's
  // registration carries the HELP text over and the twin's emission
  // materializes the derived series. Maps wlm_cluster_X -> wlm_X, empty
  // when `name` is not federation-derived.
  auto shard_twin = [](const std::string& name) -> std::string {
    static const std::string kClusterPrefix = "wlm_cluster_";
    if (name.rfind(kClusterPrefix, 0) != 0) return std::string();
    return "wlm_" + name.substr(kClusterPrefix.size());
  };

  // metric_refs are (name, path, line)-sorted, so "first site" per name
  // and direction is deterministic.
  std::set<std::string> done;
  for (const MetricRef& ref : graph.metric_refs) {
    if (!done.insert((ref.registered ? "r:" : "e:") + ref.name).second) {
      continue;
    }
    const std::string twin = shard_twin(ref.name);
    if (ref.registered) {
      bool emitted = emitted_exact.count(ref.name) > 0;
      if (!emitted && !twin.empty()) emitted = emitted_exact.count(twin) > 0;
      for (auto it = emitted_prefix.begin(); !emitted && it != emitted_prefix.end(); ++it) {
        if (ref.name.rfind(*it, 0) == 0) emitted = true;
        if (!twin.empty() && twin.rfind(*it, 0) == 0) emitted = true;
      }
      if (!emitted && !allows(ref.path, ref.line)) {
        findings->push_back(
            {ref.path, ref.line, "T3",
             "metric '" + ref.name +
                 "' is registered (SetHelp) but never emitted — dead "
                 "telemetry; drop the registration or wire up the "
                 "emission"});
      }
    } else if (!ref.name.empty() && ref.name.back() == '_') {
      bool known = false;
      for (const std::string& r : registered) {
        if (r.rfind(ref.name, 0) == 0 ||
            (!twin.empty() && r.rfind(twin, 0) == 0)) {
          known = true;
          break;
        }
      }
      if (!known && !allows(ref.path, ref.line)) {
        findings->push_back(
            {ref.path, ref.line, "T3",
             "no registered metric matches composed prefix '" + ref.name +
                 "' — every series the prefix can produce needs a SetHelp "
                 "registration"});
      }
    } else if (registered.count(ref.name) == 0 &&
               (twin.empty() || registered.count(twin) == 0) &&
               !allows(ref.path, ref.line)) {
      findings->push_back(
          {ref.path, ref.line, "T3",
           "metric '" + ref.name +
               "' is emitted but never registered with SetHelp — it "
               "exports without HELP text and is invisible to the docs "
               "surface"});
    }
  }

  if (graph.event_decls.empty()) return;
  std::set<std::string> decl_files;
  for (const EventTypeDecl& d : graph.event_decls) decl_files.insert(d.path);
  bool has_tostring =
      graph.functions_by_name.count("WlmEventTypeToString") > 0;
  std::set<std::string> emitted_ev;
  std::set<std::string> documented_ev;
  for (const EventTypeUse& u : graph.event_uses) {
    if (u.enclosing_function == "WlmEventTypeToString") {
      documented_ev.insert(u.enumerator);
    } else if (decl_files.count(u.path) == 0) {
      // Uses inside the declaring file (default initializers, the count
      // sentinel) are bookkeeping, not emission.
      emitted_ev.insert(u.enumerator);
    }
  }
  std::set<std::string> seen_enum;
  for (const EventTypeDecl& d : graph.event_decls) {
    if (!seen_enum.insert(d.enumerator).second) continue;
    if (emitted_ev.count(d.enumerator) == 0 && !allows(d.path, d.line)) {
      findings->push_back(
          {d.path, d.line, "T3",
           "event type '" + d.enumerator +
               "' is declared but never emitted outside its declaring file "
               "— dead telemetry; remove it or wire up the emission"});
    }
    if (has_tostring && documented_ev.count(d.enumerator) == 0 &&
        !allows(d.path, d.line)) {
      findings->push_back(
          {d.path, d.line, "T3",
           "event type '" + d.enumerator +
               "' is missing from WlmEventTypeToString — exporters and the "
               "docs surface will render it as a raw integer"});
    }
  }
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });
}

/// The per-file (non-graph) rules, shared by LintSource and LintProject.
void RunFileRules(const std::string& path, const LexedFile& file,
                  const std::set<std::string>& unordered_vars,
                  const Suppressions& allow,
                  std::vector<Finding>* findings) {
  findings->insert(findings->end(), allow.malformed.begin(),
                   allow.malformed.end());
  RunD1(path, file, allow, findings);
  RunD2(path, file, unordered_vars, allow, findings);
  RunD3(path, file, allow, findings);
  RunH1(path, file, allow, findings);
  RunH2(path, file, allow, findings);
  RunP1(path, file, allow, findings);
  RunQ1(path, file, allow, findings);
  RunS1(path, file, allow, findings);
}

/// Whole-project driver. `fallback_vars` carries unordered-member names for
/// .cc files whose header was not part of the scanned set (the lone-file
/// invocation reads the on-disk sibling) — keyed by the .cc path.
std::vector<Finding> LintProjectImpl(
    const std::vector<SourceFile>& files, const ProjectConfig& config,
    const std::map<std::string, std::set<std::string>>& fallback_vars) {
  // One lex per file; the map both dedupes and fixes iteration order.
  std::map<std::string, LexedFile> lexed;
  for (const SourceFile& f : files) {
    if (lexed.count(f.path) == 0) lexed.emplace(f.path, Lex(f.content));
  }

  std::map<std::string, std::set<std::string>> header_vars;
  for (const auto& [path, lf] : lexed) {
    if (IsHeader(path)) header_vars[path] = CollectUnorderedVars(lf);
  }

  std::vector<Finding> findings;
  std::map<std::string, Suppressions> supp;
  SymbolGraph graph;
  for (const auto& [path, lf] : lexed) {
    const Suppressions& allow =
        supp.emplace(path, ParseSuppressions(path, lf)).first->second;
    std::set<std::string> vars = CollectUnorderedVars(lf);
    if (IsSource(path)) {
      std::string self = Stem(path) + ".h";
      bool matched = false;
      for (const auto& [header, hvars] : header_vars) {
        if (Basename(header) == self) {
          vars.insert(hvars.begin(), hvars.end());
          matched = true;
        }
      }
      if (!matched) {
        auto fb = fallback_vars.find(path);
        if (fb != fallback_vars.end()) {
          vars.insert(fb->second.begin(), fb->second.end());
        }
      }
    }
    RunFileRules(path, lf, vars, allow, &findings);
    IndexFile(path, lf, &graph);
  }
  FinalizeGraph(&graph);
  RunT1(graph, supp, &findings);
  RunT2(graph, config.layers, supp, &findings);
  RunT3(graph, supp, &findings);
  SortFindings(&findings);
  return findings;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// SARIF artifact URIs are forward-slash relative paths.
std::string SarifUri(const std::string& path) {
  std::string out;
  out.reserve(path.size());
  for (char c : path) out += c == '\\' ? '/' : c;
  while (out.rfind("./", 0) == 0) out = out.substr(2);
  return out;
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"A0", "`wlm-lint: allow(ID)` suppressions must name a rule and a "
             "reason"},
      {"D1", "randomness and time must flow through the seeded wlm::Rng and "
             "the simulation clock, never OS entropy or wall clock"},
      {"D2", "iterating an unordered container must not feed event emission, "
             "victim selection, or RNG draws — sort an id snapshot first"},
      {"D3", "the sim clock is a double assigned absolute event timestamps; "
             "no float, no incremental accumulation"},
      {"H1", "bool/Status/Result-returning public engine/core APIs carry "
             "[[nodiscard]]"},
      {"H2", "no <iostream> in headers; a .cc includes its own header "
             "first"},
      {"IO", "every path handed to the linter must exist and be readable"},
      {"P1", "engine-layer components emit phase transitions through the "
             "Telemetry facade, never the control-plane EventLog directly"},
      {"Q1", "wait-queue containers in admission/scheduling/core/overload "
             "declare an explicit capacity bound (or justify the unbounded "
             "queue with an allow annotation)"},
      {"S1", "no mutable static storage in library layers (src/) — the "
             "cluster layer multi-instantiates every component per shard, "
             "so all state must live in instance members"},
      {"T1", "no function outside src/common may transitively reach a "
             "wall-clock or OS-entropy source through the call graph — "
             "wrapping time() one level deep does not make it "
             "deterministic"},
      {"T2", "cross-module includes follow the declared layer DAG "
             "(tools/wlm-lint/layers.toml): strictly lower layers only, "
             "and no include cycles"},
      {"T3", "the telemetry registry is closed: every wlm_* metric emitted "
             "is registered via SetHelp (and vice versa), every "
             "WlmEventType is emitted somewhere and named by "
             "WlmEventTypeToString"},
  };
  return kRules;
}

std::set<std::string> CollectUnorderedVars(const LexedFile& file) {
  std::set<std::string> out;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        !IsUnorderedTypeName(toks[i].text)) {
      continue;
    }
    if (!TextIs(toks, i + 1, "<")) continue;
    size_t j = SkipTemplateArgs(toks, i + 1);
    // Skip cv/ref/pointer decorations between type and declarator.
    while (j < toks.size() &&
           (toks[j].text == "const" || toks[j].text == "&" ||
            toks[j].text == "*")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    // `unordered_map<K,V> Foo(` declares a function returning the map,
    // not a variable.
    if (TextIs(toks, j + 1, "(")) continue;
    out.insert(toks[j].text);
  }
  return out;
}

std::vector<Finding> LintSource(
    const std::string& path, const std::string& content,
    const std::set<std::string>& extra_unordered_vars) {
  LexedFile file = Lex(content);
  Suppressions allow = ParseSuppressions(path, file);

  std::set<std::string> vars = CollectUnorderedVars(file);
  vars.insert(extra_unordered_vars.begin(), extra_unordered_vars.end());

  std::vector<Finding> findings;
  RunFileRules(path, file, vars, allow, &findings);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> LintProject(const std::vector<SourceFile>& files,
                                 const ProjectConfig& config) {
  return LintProjectImpl(files, config, {});
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const ProjectConfig& config) {
  std::vector<Finding> findings;
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        const fs::path& p = it->path();
        std::string name = p.filename().string();
        if (it->is_directory() && (name == "build" || name.starts_with("."))) {
          it.disable_recursion_pending();
          continue;
        }
        if (!it->is_regular_file()) continue;
        std::string s = p.string();
        if (s.ends_with(".h") || s.ends_with(".cc")) files.push_back(s);
      }
    } else if (fs::exists(path, ec)) {
      files.push_back(path);
    } else {
      findings.push_back({path, 0, "IO", "cannot read path"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  auto read = [](const std::string& file, std::string* content) {
    std::ifstream in(file, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *content = ss.str();
    return true;
  };

  // Read everything up front; project analysis needs the full set. For a
  // .cc whose header is not in the scanned set (lone-file invocation),
  // read the on-disk sibling for its unordered members only — it
  // contributes context, not findings.
  std::set<std::string> scanned_headers;
  for (const std::string& file : files) {
    if (IsHeader(file)) scanned_headers.insert(Basename(file));
  }
  std::vector<SourceFile> sources;
  std::map<std::string, std::set<std::string>> fallback_vars;
  for (const std::string& file : files) {
    std::string content;
    if (!read(file, &content)) {
      findings.push_back({file, 0, "IO", "cannot read file"});
      continue;
    }
    sources.push_back({file, std::move(content)});
    if (IsSource(file)) {
      std::string self = Stem(file) + ".h";
      if (scanned_headers.count(self) == 0) {
        fs::path sibling = fs::path(file).parent_path() / self;
        std::string header_content;
        if (read(sibling.string(), &header_content)) {
          fallback_vars[file] = CollectUnorderedVars(Lex(header_content));
        }
      }
    }
  }
  std::vector<Finding> project = LintProjectImpl(sources, config,
                                                 fallback_vars);
  findings.insert(findings.end(), project.begin(), project.end());
  SortFindings(&findings);
  return findings;
}

std::map<std::string, int> ParseLayersToml(const std::string& content,
                                           std::string* error) {
  std::map<std::string, int> out;
  auto fail = [&](int line_no, const std::string& why) {
    if (error) {
      *error = "layers.toml line " + std::to_string(line_no) + ": " + why;
    }
    out.clear();
  };
  bool in_layers = false;
  int line_no = 0;
  std::istringstream in(content);
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    size_t hash = raw.find('#');
    std::string line =
        Trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;
    if (line.front() == '[') {
      in_layers = line == "[layers]";
      continue;
    }
    if (!in_layers) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(line_no, "expected `module = rank`");
      return out;
    }
    std::string key = Trim(line.substr(0, eq));
    std::string val = Trim(line.substr(eq + 1));
    if (key.empty() || val.empty() ||
        val.find_first_not_of("0123456789") != std::string::npos) {
      fail(line_no, "expected `module = rank` with a non-negative integer "
                    "rank");
      return out;
    }
    if (out.count(key) > 0) {
      fail(line_no, "duplicate module '" + key + "'");
      return out;
    }
    out[key] = std::stoi(val);
  }
  if (out.empty() && error != nullptr) {
    *error = "layers.toml: no [layers] entries";
  }
  return out;
}

std::string ToSarif(const std::vector<Finding>& findings) {
  const std::vector<RuleInfo>& rules = Rules();
  std::map<std::string, size_t> rule_index;
  for (size_t i = 0; i < rules.size(); ++i) rule_index[rules[i].id] = i;

  std::string out;
  out += "{\n";
  out += "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"wlm-lint\",\n";
  out += "          \"rules\": [\n";
  for (size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": \"";
    out += JsonEscape(rules[i].id);
    out += "\", \"shortDescription\": {\"text\": \"";
    out += JsonEscape(rules[i].rationale);
    out += "\"}}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out += "          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"columnKind\": \"utf16CodeUnits\",\n";
  out += "      \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "        {\"ruleId\": \"";
    out += JsonEscape(f.rule);
    out += "\", ";
    auto idx = rule_index.find(f.rule);
    if (idx != rule_index.end()) {
      out += "\"ruleIndex\": " + std::to_string(idx->second) + ", ";
    }
    out += "\"level\": \"error\", \"message\": {\"text\": \"";
    out += JsonEscape(f.message);
    out += "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"";
    out += JsonEscape(SarifUri(f.path));
    out += "\"}, \"region\": {\"startLine\": ";
    out += std::to_string(f.line > 0 ? f.line : 1);
    out += "}}}]}";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out += "      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string ToBaseline(const std::vector<Finding>& findings) {
  std::string out =
      "# wlm-lint baseline: one `rule<TAB>path<TAB>message` per accepted "
      "finding.\n"
      "# Line numbers are omitted on purpose: edits above a known finding "
      "must not\n"
      "# invalidate the baseline. Regenerate with --write-baseline.\n";
  for (const Finding& f : findings) {
    out += f.rule + "\t" + f.path + "\t" + f.message + "\n";
  }
  return out;
}

std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::string& baseline_content) {
  std::multiset<std::string> keys;
  std::istringstream in(baseline_content);
  std::string raw;
  while (std::getline(in, raw)) {
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    if (raw.empty() || raw.front() == '#') continue;
    keys.insert(raw);
  }
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    std::string key = f.rule + "\t" + f.path + "\t" + f.message;
    auto it = keys.find(key);
    if (it != keys.end()) {
      keys.erase(it);  // each baseline line absorbs exactly one finding
      continue;
    }
    out.push_back(f);
  }
  return out;
}

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace wlm::lint
