// Systematic schedule exploration for mps worlds ("stateless model
// checking" in the Godefroid/VeriSoft sense).
//
// The pieces, bottom-up:
//
//  - Action: one virtual-scheduler decision — either "let rank r run to its
//    next scheduling point" (kStep) or "rank r's pending poll observes the
//    head envelope of flow (src, tag)" (kDeliver). A schedule is the
//    sequence of Actions taken; it determines the entire run because a
//    hooked world (mps/delivery_hook.h) has no other source of
//    nondeterminism.
//
//  - Scheduler: a DeliveryHook that serializes the world — at most one rank
//    runs between scheduling points — and asks a Strategy to pick each
//    Action from the canonically ordered enabled set. Detects deadlock
//    (live ranks, nothing enabled) and tears the world down through the
//    engine's abort path when a run must stop early.
//
//  - Strategies: RandomStrategy (seeded fuzzing), ReplayStrategy (force a
//    recorded schedule, verifying the enabled sets match — the replay
//    determinism check), DfsStrategy (bounded-exhaustive DFS over
//    schedules with sleep-set pruning of commuting alternatives).
//
//  - explore_exhaustive / explore_random / replay_schedule: drive a Runner
//    (one world construction + rank bodies + property checks) once per
//    schedule and aggregate the verdicts into an ExploreReport.
//
// Soundness of the pruning: two Actions are independent iff they are
// decisions of *different* ranks. A Step(r) only reads r's state and
// appends envelopes to flows keyed by src = r; a Deliver(r, f) pops the
// head of a flow owned by receiver r. Actions of distinct ranks therefore
// touch disjoint rank state and act on each flow from opposite ends
// (append vs pop of a nonempty queue), so they commute; sleep sets built on
// this relation skip only schedules Mazurkiewicz-equivalent to an explored
// one. Replay additionally verifies the enabled set at every step, so a
// wrong independence claim surfaces as a reported divergence instead of a
// silent hole in the exploration.
//
// See docs/static-analysis.md ("Model checking") for bounds and usage.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "mps/delivery_hook.h"
#include "mps/message.h"
#include "util/types.h"

#include <condition_variable>

namespace pagen::mps::mc {

/// One virtual-scheduler decision.
struct Action {
  enum class Kind : std::uint8_t { kStep = 0, kDeliver = 1 };

  Kind kind = Kind::kStep;
  /// The rank that acts (kStep) or receives (kDeliver).
  Rank rank = 0;
  /// kDeliver only: the delivered flow, (sender, tag). -1/0 for kStep.
  Rank src = -1;
  int tag = 0;

  friend bool operator==(const Action&, const Action&) = default;
  /// Canonical order: by (rank, kind, src, tag). The enabled set is always
  /// built in this order, so strategy choices are stable across replays.
  friend auto operator<=>(const Action&, const Action&) = default;
};

/// True when the two actions commute (may be reordered without changing
/// any rank's observations) — see the header comment for the argument.
[[nodiscard]] inline bool independent(const Action& a, const Action& b) {
  return a.rank != b.rank;
}

/// A recorded schedule plus enough metadata to re-create the run. The
/// `meta` map is free-form (the harness records generator config there);
/// replay only needs `actions`.
struct ScheduleTrace {
  std::map<std::string, std::string> meta;
  std::vector<Action> actions;
  std::string failure;
};

/// Serialize to the "pagen.mpsmc.v1" JSON format (docs/static-analysis.md).
[[nodiscard]] std::string trace_to_json(const ScheduleTrace& trace);

/// Parse a "pagen.mpsmc.v1" document. Returns false (and fills `error`) on
/// malformed input; tolerant of unknown meta keys.
[[nodiscard]] bool trace_from_json(const std::string& json,
                                   ScheduleTrace& out, std::string& error);

/// Picks the next Action. Called by the Scheduler with the canonically
/// ordered enabled set (never empty); returns an index into it, or kPrune
/// to abandon the current run (DFS redundancy, replay divergence).
class Strategy {
 public:
  static constexpr int kPrune = -1;

  Strategy() = default;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;
  virtual ~Strategy() = default;

  virtual int choose(const std::vector<Action>& enabled) = 0;
};

/// Uniform random choice from a seeded PRNG; records the schedule taken.
class RandomStrategy final : public Strategy {
 public:
  explicit RandomStrategy(std::uint64_t seed) : rng_(seed) {}

  int choose(const std::vector<Action>& enabled) override;

  [[nodiscard]] const std::vector<Action>& taken() const { return taken_; }

 private:
  std::mt19937_64 rng_;
  std::vector<Action> taken_;
};

/// Forces a recorded schedule. Every step verifies the recorded action is
/// enabled; a divergence (it is not, or the schedule runs out while the
/// world still wants decisions) sets the corresponding flag and prunes.
class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(std::vector<Action> actions)
      : actions_(std::move(actions)) {}

  int choose(const std::vector<Action>& enabled) override;

  /// A recorded action was not enabled at its step.
  [[nodiscard]] bool diverged() const { return diverged_; }
  /// The recording ended but the world asked for another decision.
  [[nodiscard]] bool overran() const { return overran_; }
  [[nodiscard]] std::size_t position() const { return next_; }

 private:
  std::vector<Action> actions_;
  std::size_t next_ = 0;
  bool diverged_ = false;
  bool overran_ = false;
};

/// Depth-first enumeration of schedules with sleep-set pruning. One
/// instance spans many runs: each run replays the current path prefix,
/// extends it at the frontier, and advance() backtracks to the next
/// unexplored branch between runs.
class DfsStrategy final : public Strategy {
 public:
  DfsStrategy() = default;

  int choose(const std::vector<Action>& enabled) override;

  /// Backtrack to the next unexplored branch. Returns false when the whole
  /// tree has been explored (exploration complete).
  [[nodiscard]] bool advance();

  /// The current run ended as redundant (all frontier candidates slept).
  [[nodiscard]] bool pruned_run() const { return pruned_run_; }
  /// A replayed prefix produced a different enabled set than recorded —
  /// the world is not schedule-deterministic (this is itself a finding).
  [[nodiscard]] bool diverged() const { return diverged_; }
  [[nodiscard]] std::uint64_t max_depth() const { return max_depth_; }

 private:
  struct Node {
    std::vector<Action> enabled;
    /// Per enabled[i]: 0 = unexplored candidate, 1 = explored,
    /// 2 = suppressed by the inherited sleep set.
    std::vector<std::uint8_t> done;
    int chosen = -1;
  };

  /// Sleep set inherited by the child of path_[depth] via its chosen
  /// action; recomputed whenever a branch is (re)entered.
  [[nodiscard]] std::vector<Action> child_sleep(const Node& node) const;

  std::vector<Node> path_;
  std::size_t depth_ = 0;
  /// Sleep set for the node about to be created at the frontier.
  std::vector<Action> frontier_sleep_;
  bool pruned_run_ = false;
  bool diverged_ = false;
  std::uint64_t max_depth_ = 0;
};

/// Scheduler tuning knobs.
struct SchedulerOptions {
  /// Abort a run whose schedule exceeds this many decisions (livelock
  /// guard); generous relative to the small model-checking configs.
  std::uint64_t max_steps = 1 << 20;
};

/// The virtual scheduler: a DeliveryHook that owns every delivery decision
/// of one World run. Construct one per run, pass it via
/// WorldOptions::delivery_hook (core: ParallelOptions::transport), run
/// the world, then read the verdict accessors.
///
/// Concurrency model: rank threads park in the hook entry points on one
/// mutex/condvar; all scheduling decisions happen under the mutex on
/// whichever rank thread reached quiescence last. There is no scheduler
/// thread. At most one rank is running between scheduling points, so the
/// run is fully determined by the Strategy's choices.
class Scheduler final : public DeliveryHook {
 public:
  Scheduler(int nranks, Strategy* strategy, SchedulerOptions options = {});

  // DeliveryHook:
  void on_rank_start(Rank r) override;
  void on_rank_exit(Rank r) override;
  void park(Rank dst, Envelope env) override;
  void park_control(Rank dst, Envelope env) override;
  bool on_poll(Rank r, bool blocking, std::vector<Envelope>& out) override;
  void on_collective_enter(Rank r) override;
  void on_collective_exit(Rank r, bool park) override;

  // Post-run verdicts (read after run_ranks returned/threw):
  /// The schedule taken, in decision order.
  [[nodiscard]] const std::vector<Action>& trace() const { return trace_; }
  /// Live ranks with nothing enabled — a real protocol deadlock.
  [[nodiscard]] bool deadlocked() const { return deadlocked_; }
  [[nodiscard]] const std::string& deadlock_detail() const {
    return deadlock_detail_;
  }
  /// The strategy pruned the run (DFS redundancy / replay divergence).
  [[nodiscard]] bool prune_aborted() const { return prune_aborted_; }
  /// The run exceeded SchedulerOptions::max_steps.
  [[nodiscard]] bool step_limited() const { return step_limited_; }
  /// The engine aborted the world (a rank threw) — distinct from the
  /// scheduler's own teardown reasons above.
  [[nodiscard]] bool world_aborted() const { return world_aborted_; }
  /// Envelopes still parked after the run: in a completed run these are
  /// lost messages (a Release-build complement to the debug-only
  /// InvariantChecker ledger).
  [[nodiscard]] std::uint64_t undelivered() const;
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }

 private:
  enum class RankState : std::uint8_t {
    kUnstarted,     // thread not yet at on_rank_start
    kReady,         // parked; a Step grant runs it to the next point
    kYield,         // parked in non-blocking poll; Step = observe nothing
    kBlocked,       // parked in blocking poll; only Deliver resumes it
    kRunning,       // the active rank, executing between points
    kInCollective,  // blocked in a rendezvous
    kAwakening,     // released from a rendezvous, racing to park
    kExited,
  };

  using Flow = std::pair<Rank, int>;  // (sender, tag)

  /// Run scheduling if the world is quiescent (everyone parked). Must hold
  /// mu_. Handles collective-completion prediction, deadlock detection,
  /// the step limit, and granting the chosen action.
  void maybe_schedule();
  [[nodiscard]] std::vector<Action> build_enabled() const;
  void grant(const Action& a);
  /// Begin teardown: wake every parked rank; polls then observe a
  /// synthetic abort envelope and unwind via WorldAborted. Must hold mu_.
  void begin_abort();
  /// Park the calling rank until granted or aborted. Must hold `lock`.
  void wait_for_grant(std::unique_lock<std::mutex>& lock, Rank r);
  [[nodiscard]] std::string describe_stuck() const;

  const int nranks_;
  Strategy* const strategy_;
  const SchedulerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RankState> state_;
  /// Parked envelopes per receiver, keyed by flow; per-flow FIFO preserves
  /// the transport's non-overtaking guarantee.
  std::vector<std::map<Flow, std::deque<Envelope>>> pool_;
  /// Envelopes granted to a resuming rank, consumed by its on_poll.
  std::vector<std::vector<Envelope>> granted_;
  std::vector<std::uint8_t> grant_ready_;
  int started_ = 0;
  int exited_ = 0;
  int in_collective_ = 0;
  int awakening_ = 0;
  Rank active_ = -1;
  bool aborting_ = false;
  bool deadlocked_ = false;
  bool prune_aborted_ = false;
  bool step_limited_ = false;
  bool world_aborted_ = false;
  std::string deadlock_detail_;
  std::uint64_t decisions_ = 0;
  std::vector<Action> trace_;
};

/// One world construction + run + property checks under `sched`. Must
/// catch everything the run throws (WorldAborted teardown is an expected
/// outcome of pruned/aborted schedules) and report violations via the
/// outcome — never by throwing.
struct RunOutcome {
  bool failed = false;
  std::string failure;
};
using Runner = std::function<RunOutcome(Scheduler& sched)>;

struct ExploreOptions {
  int nranks = 2;
  /// Stop exhaustive exploration after this many runs (explored + pruned)
  /// even if the tree is not exhausted; `complete` reports which happened.
  std::uint64_t max_schedules = 1'000'000;
  std::uint64_t max_steps = 1 << 20;
};

struct ExploreReport {
  /// Schedules actually run to a verdict.
  std::uint64_t schedules_explored = 0;
  /// Runs abandoned by sleep-set pruning (redundant interleavings).
  std::uint64_t schedules_pruned = 0;
  std::uint64_t decisions = 0;
  std::uint64_t max_depth = 0;
  /// True when the schedule tree was exhausted within max_schedules.
  bool complete = false;
  bool failed = false;
  std::string failure;
  /// The failing schedule (replayable), valid when `failed`.
  ScheduleTrace failing;
};

/// Bounded-exhaustive DFS with sleep-set pruning. Stops at the first
/// property violation (its schedule is recorded in the report).
[[nodiscard]] ExploreReport explore_exhaustive(const ExploreOptions& options,
                                               const Runner& runner);

/// `schedules` independent runs under RandomStrategy(base_seed + i).
[[nodiscard]] ExploreReport explore_random(const ExploreOptions& options,
                                           std::uint64_t base_seed,
                                           std::uint64_t schedules,
                                           const Runner& runner);

struct ReplayReport {
  RunOutcome outcome;
  /// The recorded schedule matched the world's behavior step for step.
  bool matched = false;
  /// Scheduler verdicts of the replayed run.
  bool deadlocked = false;
  std::string deadlock_detail;
  std::uint64_t undelivered = 0;
};

/// Re-run one recorded schedule.
[[nodiscard]] ReplayReport replay_schedule(const ExploreOptions& options,
                                           const ScheduleTrace& trace,
                                           const Runner& runner);

}  // namespace pagen::mps::mc
