// Deterministic fault injection for the mps runtime.
//
// The paper's algorithms assume a lossless, crash-free message substrate;
// this module deliberately breaks that assumption in a *reproducible* way so
// the reliability layer (mps/reliable.h) and the generators' checkpoint /
// restart path (core/checkpoint.h) can be exercised under ctest. Every
// injection decision is a pure function of (fault seed, src, dst, tag, seq,
// attempt) — independent of thread interleaving — so a fault run is
// replayable from its seed alone. See docs/robustness.md for the spec
// grammar and the determinism guarantees.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mps/message.h"
#include "util/types.h"

namespace pagen::mps {

/// Thrown from the send path of a rank scripted to crash. To the runtime it
/// is a rank failure like any other: mps::run_ranks aborts the world and
/// rethrows it as the root cause, and core::generate relaunches the run
/// from the ranks' checkpoints when ParallelOptions::max_respawns allows.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(Rank rank, std::uint64_t step)
      : std::runtime_error("injected crash of rank " + std::to_string(rank) +
                           " at send step " + std::to_string(step)) {}
};

/// A parsed fault plan. Default-constructed plans are inert. Spec grammar
/// (docs/robustness.md):
///
///   spec  := item (',' item)*
///   item  := 'seed=' u64        — decision seed (default 0)
///          | 'drop=' prob       — per-transmission drop probability
///          | 'dup=' prob        — duplicate-delivery probability
///          | 'reorder=' prob    — hold-and-swap (overtaking) probability
///          | 'crash=' rank '@' step          — kill rank at its step-th send
///          | 'stall=' rank '@' step ':' ms   — freeze rank for ms at a step
///          | 'jobfail=' prob '@' attempts    — svc: fail a job attempt with
///                                              prob, for the first attempts
///                                              attempts of each job
///          | 'storecorrupt=' prob  — svc: flip a byte in a freshly written
///                                    result-store shard
///          | 'ckptcorrupt=' prob   — svc: flip a byte in a checkpoint file
///                                    after a failed attempt
///
/// e.g. "seed=7,drop=0.02,dup=0.01,reorder=0.05,crash=3@1000" or, for the
/// serving layer, "seed=9,jobfail=0.5@2,storecorrupt=0.3,ckptcorrupt=0.2".
/// The svc-scope items are interpreted by svc::Server, not the transport;
/// they do not force reliable delivery on their own (see svc_active()).
struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  Rank crash_rank = -1;
  std::uint64_t crash_step = 0;
  Rank stall_rank = -1;
  std::uint64_t stall_step = 0;
  std::uint32_t stall_ms = 0;
  double jobfail = 0.0;
  std::uint32_t jobfail_attempts = 1;
  double storecorrupt = 0.0;
  double ckptcorrupt = 0.0;

  /// True when any *transport-scope* injection is configured. An active plan
  /// requires the reliable-delivery layer (enforced by World's constructor).
  /// Service-scope faults (jobfail/storecorrupt/ckptcorrupt) deliberately do
  /// not count: they live above the transport.
  [[nodiscard]] bool active() const {
    return drop > 0.0 || dup > 0.0 || reorder > 0.0 || crash_rank >= 0 ||
           stall_rank >= 0;
  }

  /// True when any service-scope injection is configured (svc::Server).
  [[nodiscard]] bool svc_active() const {
    return jobfail > 0.0 || storecorrupt > 0.0 || ckptcorrupt > 0.0;
  }

  [[nodiscard]] bool has_crash() const { return crash_rank >= 0; }

  /// Pure uniform roll in [0, 1) for service-scope decisions: a splitmix64
  /// chain over (seed, salt, key, attempt). `salt` names the fault kind,
  /// `key` the job (spec hash or job id), `attempt` the attempt ordinal —
  /// so a decision is replayable from the plan seed alone, independent of
  /// worker scheduling.
  [[nodiscard]] double svc_roll(std::uint64_t salt, std::uint64_t key,
                                std::uint32_t attempt) const;

  /// Parse the spec grammar above; throws CheckError on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Canonical spec string (parse(to_string()) round-trips).
  [[nodiscard]] std::string to_string() const;
};

/// What to do with one physical transmission.
enum class FaultAction : std::uint8_t {
  kDeliver,  ///< deliver normally
  kDrop,     ///< discard silently (retransmission recovers it)
  kDup,      ///< deliver twice (receiver-side dedup discards the copy)
  kHold,     ///< park; released after the flow's next transmission (reorder)
};

/// One injector per World. Decision state is pure (no mutation); the limbo
/// buffers used for reordering are keyed by source rank and touched only by
/// that rank's thread, so they need no locks. The crash/stall latches are
/// atomics so crash_fired() may be read from any thread.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int nranks);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Pure decision for one physical transmission attempt.
  [[nodiscard]] FaultAction decide(Rank src, Rank dst, int tag,
                                   std::uint64_t seq,
                                   std::uint32_t attempt) const;

  /// Send-path precheck, called on src's thread before every logical send:
  /// advances src's step counter, sleeps through a scripted stall, and
  /// throws InjectedCrash exactly once when the scripted step is reached.
  void on_send_step(Rank src);

  /// Reordering limbo of one source rank (owner thread only): at most one
  /// held envelope per (dst, tag) flow. Returns the previously held
  /// envelope for the flow, if any, which the caller must deliver *after*
  /// the current one.
  [[nodiscard]] std::vector<Envelope> swap_held(Rank src, Rank dst, int tag,
                                                Envelope held);
  [[nodiscard]] std::vector<Envelope> take_held(Rank src, Rank dst, int tag);

  // Run-wide injection tallies (informational; per-rank counts live in
  // CommStats so they survive into RunResult).
  [[nodiscard]] std::uint64_t total_drops() const { return drops_.load(); }
  [[nodiscard]] std::uint64_t total_dups() const { return dups_.load(); }
  [[nodiscard]] std::uint64_t total_holds() const { return holds_.load(); }
  [[nodiscard]] bool crash_fired() const { return crash_fired_.load(); }

  void count_drop() { drops_.fetch_add(1, std::memory_order_relaxed); }
  void count_dup() { dups_.fetch_add(1, std::memory_order_relaxed); }
  void count_hold() { holds_.fetch_add(1, std::memory_order_relaxed); }

 private:
  using FlowKey = std::pair<Rank, int>;

  FaultPlan plan_;
  /// Cumulative logical-send steps per rank; indexed and written only by
  /// the owning rank's thread.
  std::vector<std::uint64_t> steps_;
  /// Per-source reorder limbo, owner-thread only (see class comment).
  std::vector<std::map<FlowKey, Envelope>> limbo_;
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> holds_{0};
  std::atomic<bool> crash_fired_{false};
  std::atomic<bool> stall_fired_{false};
};

}  // namespace pagen::mps
