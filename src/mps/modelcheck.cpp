#include "mps/modelcheck.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace pagen::mps::mc {
namespace {

/// Parked waiters give up after this long without a grant: a scheduler bug
/// must fail the run loudly instead of hanging CI. Generous — the whole
/// exhaustive sweep of a test config finishes in seconds.
constexpr std::chrono::seconds kWatchdog{120};

Envelope abort_envelope() {
  // Synthetic wake-up: Comm::account_received translates kAbortTag into
  // WorldAborted, which unwinds the rank through the engine's abort path.
  return Envelope{-1, kAbortTag, {}, 0, {}};
}

const char* state_name(int s) {
  static const char* kNames[] = {"unstarted",  "ready",     "yield",
                                 "blocked",    "running",   "collective",
                                 "awakening",  "exited"};
  return kNames[s];
}

bool contains(const std::vector<Action>& set, const Action& a) {
  return std::find(set.begin(), set.end(), a) != set.end();
}

}  // namespace

// ---------------------------------------------------------------------------
// Strategies

int RandomStrategy::choose(const std::vector<Action>& enabled) {
  std::uniform_int_distribution<std::size_t> dist(0, enabled.size() - 1);
  const std::size_t idx = dist(rng_);
  taken_.push_back(enabled[idx]);
  return static_cast<int>(idx);
}

int ReplayStrategy::choose(const std::vector<Action>& enabled) {
  if (next_ >= actions_.size()) {
    overran_ = true;
    return kPrune;
  }
  const Action& want = actions_[next_];
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (enabled[i] == want) {
      ++next_;
      return static_cast<int>(i);
    }
  }
  diverged_ = true;
  return kPrune;
}

std::vector<Action> DfsStrategy::child_sleep(const Node& node) const {
  // Sleep-set rule (Godefroid): an alternative that was slept at this node
  // or already fully explored here stays asleep in the chosen child iff it
  // commutes with the chosen action — its interleavings are covered by the
  // sibling subtree where it ran first.
  std::vector<Action> sleep;
  const Action& chosen = node.enabled[static_cast<std::size_t>(node.chosen)];
  for (std::size_t i = 0; i < node.enabled.size(); ++i) {
    if (node.done[i] != 0 && static_cast<int>(i) != node.chosen &&
        independent(node.enabled[i], chosen)) {
      sleep.push_back(node.enabled[i]);
    }
  }
  return sleep;
}

int DfsStrategy::choose(const std::vector<Action>& enabled) {
  max_depth_ = std::max(max_depth_, static_cast<std::uint64_t>(depth_ + 1));
  if (depth_ < path_.size()) {
    // Replaying the committed prefix of the current branch.
    Node& node = path_[depth_];
    if (node.enabled != enabled) {
      // The world is supposed to be a pure function of the schedule; a
      // prefix that replays to a different enabled set is a finding.
      diverged_ = true;
      pruned_run_ = true;
      return kPrune;
    }
    ++depth_;
    frontier_sleep_ = child_sleep(node);
    return node.chosen;
  }
  // Frontier: commit a new node.
  Node node;
  node.enabled = enabled;
  node.done.assign(enabled.size(), 0);
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (contains(frontier_sleep_, enabled[i])) node.done[i] = 2;
  }
  int pick = -1;
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (node.done[i] == 0) {
      pick = static_cast<int>(i);
      break;
    }
  }
  if (pick < 0) {
    // Every enabled action is asleep: this whole continuation is
    // Mazurkiewicz-equivalent to an explored one.
    path_.push_back(std::move(node));
    pruned_run_ = true;
    return kPrune;
  }
  node.chosen = pick;
  path_.push_back(std::move(node));
  ++depth_;
  frontier_sleep_ = child_sleep(path_.back());
  return pick;
}

bool DfsStrategy::advance() {
  pruned_run_ = false;
  depth_ = 0;
  frontier_sleep_.clear();
  while (!path_.empty()) {
    Node& node = path_.back();
    if (node.chosen >= 0) node.done[static_cast<std::size_t>(node.chosen)] = 1;
    int pick = -1;
    for (std::size_t i = 0; i < node.enabled.size(); ++i) {
      if (node.done[i] == 0) {
        pick = static_cast<int>(i);
        break;
      }
    }
    if (pick >= 0) {
      node.chosen = pick;
      return true;
    }
    path_.pop_back();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(int nranks, Strategy* strategy, SchedulerOptions options)
    : nranks_(nranks), strategy_(strategy), options_(options) {
  PAGEN_CHECK(nranks >= 1 && strategy != nullptr);
  state_.assign(static_cast<std::size_t>(nranks), RankState::kUnstarted);
  pool_.resize(static_cast<std::size_t>(nranks));
  granted_.resize(static_cast<std::size_t>(nranks));
  grant_ready_.assign(static_cast<std::size_t>(nranks), 0);
}

void Scheduler::wait_for_grant(std::unique_lock<std::mutex>& lock, Rank r) {
  const auto idx = static_cast<std::size_t>(r);
  const bool ok = cv_.wait_for(lock, kWatchdog, [&] {
    return grant_ready_[idx] != 0 || aborting_;
  });
  if (!ok) {
    // Scheduler bug (nothing granted, nothing aborted): fail the run
    // loudly rather than hang. Entry points may not throw (on_rank_start
    // runs outside the engine's try block), so record and tear down.
    deadlocked_ = true;
    deadlock_detail_ = "scheduler watchdog fired: " + describe_stuck();
    begin_abort();
    return;
  }
  if (grant_ready_[idx] != 0) grant_ready_[idx] = 0;
}

void Scheduler::on_rank_start(Rank r) {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborting_) return;
  state_[static_cast<std::size_t>(r)] = RankState::kReady;
  ++started_;
  maybe_schedule();
  wait_for_grant(lock, r);
}

void Scheduler::on_rank_exit(Rank r) {
  std::unique_lock<std::mutex> lock(mu_);
  state_[static_cast<std::size_t>(r)] = RankState::kExited;
  ++exited_;
  if (active_ == r) active_ = -1;
  maybe_schedule();
}

void Scheduler::park(Rank dst, Envelope env) {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborting_) return;  // teardown traffic: nobody will poll for it
  pool_[static_cast<std::size_t>(dst)][Flow{env.src, env.tag}].push_back(
      std::move(env));
}

void Scheduler::park_control(Rank dst, Envelope env) {
  std::unique_lock<std::mutex> lock(mu_);
  if (env.tag == kAbortTag) {
    // Engine abort broadcast: a rank failed for a reason of its own (not
    // one of the scheduler's teardowns). Wake everyone; parked polls
    // synthesize their own abort envelope.
    world_aborted_ = true;
    begin_abort();
    return;
  }
  pool_[static_cast<std::size_t>(dst)][Flow{env.src, env.tag}].push_back(
      std::move(env));
}

bool Scheduler::on_poll(Rank r, bool blocking, std::vector<Envelope>& out) {
  const auto idx = static_cast<std::size_t>(r);
  std::unique_lock<std::mutex> lock(mu_);
  if (aborting_) {
    out.push_back(abort_envelope());
    return true;
  }
  if (active_ == r) active_ = -1;
  state_[idx] = blocking ? RankState::kBlocked : RankState::kYield;
  maybe_schedule();
  wait_for_grant(lock, r);
  if (!granted_[idx].empty()) {
    for (Envelope& env : granted_[idx]) out.push_back(std::move(env));
    granted_[idx].clear();
    return true;
  }
  if (aborting_) {
    out.push_back(abort_envelope());
    return true;
  }
  return false;  // a Step grant: this poll observes nothing
}

void Scheduler::on_collective_enter(Rank r) {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborting_) return;
  state_[static_cast<std::size_t>(r)] = RankState::kInCollective;
  ++in_collective_;
  if (active_ == r) active_ = -1;
  maybe_schedule();
}

void Scheduler::on_collective_exit(Rank r, bool park) {
  const auto idx = static_cast<std::size_t>(r);
  std::unique_lock<std::mutex> lock(mu_);
  if (aborting_) return;
  if (state_[idx] == RankState::kAwakening) {
    --awakening_;
  } else if (state_[idx] == RankState::kInCollective) {
    --in_collective_;
  }
  if (!park) {
    // Poisoned rendezvous: the rank is unwinding; keep it out of the
    // scheduler's way (the engine abort will reach us via park_control).
    state_[idx] = RankState::kRunning;
    return;
  }
  state_[idx] = RankState::kReady;
  maybe_schedule();
  wait_for_grant(lock, r);
}

std::uint64_t Scheduler::undelivered() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& flows : pool_) {
    for (const auto& [flow, q] : flows) n += q.size();
  }
  for (const auto& g : granted_) n += g.size();
  return n;
}

std::vector<Action> Scheduler::build_enabled() const {
  std::vector<Action> enabled;
  for (Rank r = 0; r < nranks_; ++r) {
    const RankState s = state_[static_cast<std::size_t>(r)];
    if (s == RankState::kReady || s == RankState::kYield) {
      enabled.push_back(Action{Action::Kind::kStep, r, -1, 0});
    }
    if (s == RankState::kYield || s == RankState::kBlocked) {
      // Map order = (src, tag) order, so the set is canonical.
      for (const auto& [flow, q] : pool_[static_cast<std::size_t>(r)]) {
        enabled.push_back(
            Action{Action::Kind::kDeliver, r, flow.first, flow.second});
      }
    }
  }
  return enabled;
}

void Scheduler::grant(const Action& a) {
  const auto idx = static_cast<std::size_t>(a.rank);
  if (a.kind == Action::Kind::kDeliver) {
    auto& flows = pool_[idx];
    auto it = flows.find(Flow{a.src, a.tag});
    PAGEN_CHECK(it != flows.end() && !it->second.empty());
    granted_[idx].push_back(std::move(it->second.front()));
    it->second.pop_front();
    if (it->second.empty()) flows.erase(it);
  }
  state_[idx] = RankState::kRunning;
  active_ = a.rank;
  grant_ready_[idx] = 1;
  cv_.notify_all();
}

void Scheduler::begin_abort() {
  aborting_ = true;
  cv_.notify_all();
}

void Scheduler::maybe_schedule() {
  if (aborting_) {
    cv_.notify_all();
    return;
  }
  // Quiescence: every thread has reached its park, nobody holds the baton,
  // and no rank is racing out of a completed rendezvous.
  if (started_ < nranks_ || active_ != -1 || awakening_ > 0) return;
  const int live = nranks_ - exited_;
  if (live == 0) return;  // run complete
  if (in_collective_ > 0 && in_collective_ == live) {
    // Predicted rendezvous completion: the last participant has arrived
    // (or is the caller), so the rendezvous is about to release every
    // live rank at once. Mark them all awakening *before* any of them can
    // race back in — scheduling resumes deterministically only when the
    // last one has parked again via on_collective_exit.
    for (auto& s : state_) {
      if (s == RankState::kInCollective) {
        s = RankState::kAwakening;
        ++awakening_;
      }
    }
    in_collective_ = 0;
    return;
  }
  std::vector<Action> enabled = build_enabled();
  if (enabled.empty()) {
    // Live ranks, nothing to schedule: a real protocol deadlock (e.g. a
    // rank blocked in poll_wait for an answer nobody will send, or stuck
    // in a rendezvous some live rank will never join).
    deadlocked_ = true;
    deadlock_detail_ = describe_stuck();
    begin_abort();
    return;
  }
  if (trace_.size() >= options_.max_steps) {
    step_limited_ = true;
    begin_abort();
    return;
  }
  const int pick = strategy_->choose(enabled);
  ++decisions_;
  if (pick < 0) {
    prune_aborted_ = true;
    begin_abort();
    return;
  }
  PAGEN_CHECK(static_cast<std::size_t>(pick) < enabled.size());
  trace_.push_back(enabled[static_cast<std::size_t>(pick)]);
  grant(enabled[static_cast<std::size_t>(pick)]);
}

std::string Scheduler::describe_stuck() const {
  std::ostringstream os;
  os << "ranks:";
  for (Rank r = 0; r < nranks_; ++r) {
    os << ' ' << r << '='
       << state_name(static_cast<int>(state_[static_cast<std::size_t>(r)]));
  }
  os << "; parked:";
  bool any = false;
  for (Rank r = 0; r < nranks_; ++r) {
    for (const auto& [flow, q] : pool_[static_cast<std::size_t>(r)]) {
      os << " (" << flow.first << "->" << r << " tag " << flow.second << ") x"
         << q.size();
      any = true;
    }
  }
  if (!any) os << " none";
  return os.str();
}

// ---------------------------------------------------------------------------
// Trace JSON ("pagen.mpsmc.v1")

namespace {

constexpr const char* kTraceFormat = "pagen.mpsmc.v1";

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Minimal recursive-descent reader for the subset of JSON the writer
/// above emits (objects, arrays, strings, integers). Tolerant of
/// whitespace and key order; rejects anything else with a position.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  [[nodiscard]] bool fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  [[nodiscard]] bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool parse_string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("short \\u escape");
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += h - '0';
            else if (h >= 'a' && h <= 'f') code += h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code += h - 'A' + 10;
            else return fail("bad \\u escape");
          }
          // The writer only emits \u00XX control escapes; anything in the
          // Latin-1 range round-trips, the rest is replaced.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default: return fail("unknown escape");
      }
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool parse_int(long long& out) {
    skip_ws();
    std::size_t end = pos_;
    if (end < text_.size() && text_[end] == '-') ++end;
    while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') ++end;
    if (end == pos_ || (text_[pos_] == '-' && end == pos_ + 1)) {
      return fail("expected integer");
    }
    out = std::stoll(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  /// Skip one value of any emitted type (for unknown keys).
  bool skip_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("expected value");
    const char c = text_[pos_];
    if (c == '"') {
      std::string dummy;
      return parse_string(dummy);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      skip_ws();
      if (peek_is(close)) {
        ++pos_;
        return true;
      }
      for (;;) {
        if (c == '{') {
          std::string key;
          if (!parse_string(key) || !expect(':')) return false;
        }
        if (!skip_value()) return false;
        skip_ws();
        if (peek_is(',')) {
          ++pos_;
          continue;
        }
        return expect(close);
      }
    }
    long long dummy = 0;
    return parse_int(dummy);
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string trace_to_json(const ScheduleTrace& trace) {
  std::string out;
  out += "{\n  \"format\": \"";
  out += kTraceFormat;
  out += "\",\n  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : trace.meta) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_escaped(out, key);
    out += ": ";
    append_escaped(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"failure\": ";
  append_escaped(out, trace.failure);
  out += ",\n  \"actions\": [";
  first = true;
  for (const Action& a : trace.actions) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '[';
    out += std::to_string(static_cast<int>(a.kind));
    out += ", ";
    out += std::to_string(a.rank);
    out += ", ";
    out += std::to_string(a.src);
    out += ", ";
    out += std::to_string(a.tag);
    out += ']';
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool trace_from_json(const std::string& json, ScheduleTrace& out,
                     std::string& error) {
  out = ScheduleTrace{};
  JsonReader r(json);
  bool format_seen = false;
  if (!r.expect('{')) {
    error = r.error();
    return false;
  }
  if (!r.peek_is('}')) {
    for (;;) {
      std::string key;
      if (!r.parse_string(key) || !r.expect(':')) {
        error = r.error();
        return false;
      }
      bool ok = true;
      if (key == "format") {
        std::string fmt;
        ok = r.parse_string(fmt);
        if (ok && fmt != kTraceFormat) {
          error = "unsupported trace format \"" + fmt + "\"";
          return false;
        }
        format_seen = ok;
      } else if (key == "failure") {
        ok = r.parse_string(out.failure);
      } else if (key == "meta") {
        ok = r.expect('{');
        if (ok && !r.peek_is('}')) {
          for (;;) {
            std::string mkey;
            std::string mval;
            if (!r.parse_string(mkey) || !r.expect(':') ||
                !r.parse_string(mval)) {
              ok = false;
              break;
            }
            out.meta[mkey] = mval;
            if (r.peek_is(',')) {
              ok = r.expect(',');
              continue;
            }
            break;
          }
        }
        if (ok) ok = r.expect('}');
      } else if (key == "actions") {
        ok = r.expect('[');
        if (ok && !r.peek_is(']')) {
          for (;;) {
            long long fields[4] = {0, 0, 0, 0};
            ok = r.expect('[');
            for (int i = 0; ok && i < 4; ++i) {
              ok = r.parse_int(fields[i]);
              if (ok && i < 3) ok = r.expect(',');
            }
            if (ok) ok = r.expect(']');
            if (!ok) break;
            if (fields[0] != 0 && fields[0] != 1) {
              error = "bad action kind " + std::to_string(fields[0]);
              return false;
            }
            out.actions.push_back(Action{
                static_cast<Action::Kind>(fields[0]),
                static_cast<Rank>(fields[1]), static_cast<Rank>(fields[2]),
                static_cast<int>(fields[3])});
            if (r.peek_is(',')) {
              ok = r.expect(',');
              continue;
            }
            break;
          }
        }
        if (ok) ok = r.expect(']');
      } else {
        ok = r.skip_value();
      }
      if (!ok) {
        error = r.error();
        return false;
      }
      if (r.peek_is(',')) {
        if (!r.expect(',')) {
          error = r.error();
          return false;
        }
        continue;
      }
      break;
    }
  }
  if (!r.expect('}')) {
    error = r.error();
    return false;
  }
  if (!format_seen) {
    error = "missing \"format\" key";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Explorers

namespace {

/// Merge the runner's outcome with the scheduler's own verdicts into one
/// failure string; empty = the schedule passed. Scheduler verdicts win:
/// when the scheduler tears a run down, the runner only ever sees the
/// secondary WorldAborted.
std::string verdict(const Scheduler& sched, const RunOutcome& out) {
  if (sched.deadlocked()) return "deadlock: " + sched.deadlock_detail();
  if (sched.step_limited()) {
    return "schedule exceeded max_steps (possible livelock)";
  }
  if (out.failed) return out.failure;
  if (const std::uint64_t lost = sched.undelivered(); lost > 0) {
    return "lost messages: " + std::to_string(lost) +
           " envelopes parked but never delivered";
  }
  if (sched.world_aborted()) {
    return "world aborted without a reported failure";
  }
  return {};
}

}  // namespace

ExploreReport explore_exhaustive(const ExploreOptions& options,
                                 const Runner& runner) {
  ExploreReport report;
  DfsStrategy dfs;
  for (;;) {
    Scheduler sched(options.nranks, &dfs, {options.max_steps});
    const RunOutcome out = runner(sched);
    report.decisions += sched.decisions();
    report.max_depth = std::max(report.max_depth, dfs.max_depth());
    if (dfs.diverged()) {
      report.failed = true;
      report.failure =
          "schedule-determinism violation: a replayed prefix produced a "
          "different enabled set";
      report.failing.actions = sched.trace();
      report.failing.failure = report.failure;
      break;
    }
    if (sched.prune_aborted()) {
      ++report.schedules_pruned;
    } else {
      ++report.schedules_explored;
      const std::string fail = verdict(sched, out);
      if (!fail.empty()) {
        report.failed = true;
        report.failure = fail;
        report.failing.actions = sched.trace();
        report.failing.failure = fail;
        break;
      }
    }
    if (report.schedules_explored + report.schedules_pruned >=
        options.max_schedules) {
      break;
    }
    if (!dfs.advance()) {
      report.complete = true;
      break;
    }
  }
  return report;
}

ExploreReport explore_random(const ExploreOptions& options,
                             std::uint64_t base_seed, std::uint64_t schedules,
                             const Runner& runner) {
  ExploreReport report;
  for (std::uint64_t i = 0; i < schedules; ++i) {
    RandomStrategy strategy(base_seed + i);
    Scheduler sched(options.nranks, &strategy, {options.max_steps});
    const RunOutcome out = runner(sched);
    report.decisions += sched.decisions();
    report.max_depth =
        std::max(report.max_depth,
                 static_cast<std::uint64_t>(sched.trace().size()));
    ++report.schedules_explored;
    const std::string fail = verdict(sched, out);
    if (!fail.empty()) {
      report.failed = true;
      report.failure = fail;
      report.failing.actions = sched.trace();
      report.failing.failure = fail;
      report.failing.meta["schedule_seed"] = std::to_string(base_seed + i);
      return report;
    }
  }
  report.complete = true;
  return report;
}

ReplayReport replay_schedule(const ExploreOptions& options,
                             const ScheduleTrace& trace, const Runner& runner) {
  ReplayStrategy strategy(trace.actions);
  Scheduler sched(options.nranks, &strategy, {options.max_steps});
  ReplayReport report;
  report.outcome = runner(sched);
  const std::string fail = verdict(sched, report.outcome);
  if (!fail.empty()) {
    report.outcome.failed = true;
    report.outcome.failure = fail;
  }
  report.matched = !strategy.diverged() && !strategy.overran() &&
                   strategy.position() == trace.actions.size();
  report.deadlocked = sched.deadlocked();
  report.deadlock_detail = sched.deadlock_detail();
  report.undelivered = sched.undelivered();
  return report;
}

}  // namespace pagen::mps::mc
