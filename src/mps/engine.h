// World and Engine: construct a rank group and run a rank function on every
// rank, one OS thread per rank.
//
// Ranks may outnumber hardware threads (this reproduction routinely runs
// P = 160 logical ranks, mirroring the paper's processor counts); the
// algorithms are latency-tolerant by design, so oversubscription affects
// wall-clock but not correctness or the measured load counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mps/collectives.h"
#include "mps/comm.h"
#include "mps/fault.h"
#include "mps/invariant.h"
#include "mps/mailbox.h"
#include "mps/stats.h"
#include "mps/world_options.h"
#include "util/types.h"

namespace pagen::obs {
class Session;
}

namespace pagen::mps {

/// Shared runtime state for one group of ranks. Owns the mailboxes and the
/// collective rendezvous; ranks access it only through their Comm endpoint.
class World {
 public:
  explicit World(int nranks, WorldOptions options = {});

  [[nodiscard]] int size() const { return nranks_; }
  [[nodiscard]] Mailbox& mailbox(Rank r);
  [[nodiscard]] CollectiveContext& collectives() { return collectives_; }
  [[nodiscard]] const WorldOptions& options() const { return options_; }
  [[nodiscard]] bool reliable() const { return options_.reliable; }

  /// The fault injector, or null when the plan is inert.
  [[nodiscard]] FaultInjector* injector() { return injector_.get(); }

  /// The schedule-control hook, or null for real mailbox delivery.
  [[nodiscard]] DeliveryHook* hook() const { return options_.delivery_hook; }

  /// Debug-build invariant checker (mps/invariant.h). In Release builds
  /// this is the zero-cost stub; call sites need no #ifdef.
  [[nodiscard]] InvariantChecker& invariants() { return invariants_; }

  /// True once any rank has failed fatally. Comm::send_bytes fast-fails
  /// with WorldAborted so a send-only loop (never polling, e.g. with full
  /// send buffers still draining) unwinds instead of talking to the dead.
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }
  void mark_aborted() { aborted_.store(true, std::memory_order_release); }

  /// Send-path precheck on src's thread: abort fast-fail, then the fault
  /// script (scripted stall; may throw InjectedCrash at the scripted step).
  void precheck_send(Rank src);

  /// Deliver one physical envelope to dst's mailbox, subject to fault
  /// injection (data tags only; `attempt` > 0 marks a retransmission so
  /// every physical attempt gets an independent injection decision).
  /// Injection tallies go to `sender_stats`.
  void deliver(Rank dst, Envelope env, std::uint32_t attempt,
               CommStats& sender_stats);

  /// Control-path delivery: bypasses injection entirely (acks, aborts).
  void deliver_control(Rank dst, Envelope env);

 private:
  int nranks_;
  WorldOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  CollectiveContext collectives_;
  InvariantChecker invariants_;
  std::unique_ptr<FaultInjector> injector_;
  std::atomic<bool> aborted_{false};
};

/// Result of one run_ranks call: per-rank runtime statistics and wall time.
struct RunResult {
  std::vector<CommStats> rank_stats;
  double wall_seconds = 0.0;
};

/// Launch `nranks` threads each executing `body(comm)`. A rank that throws —
/// InjectedCrash included — aborts the world: peers blocked in polls or
/// collectives unwind with WorldAborted, and after all threads join the
/// root cause is rethrown (core::generate relaunches a crashed run).
///
/// When `obs` is non-null, every rank records into obs->rank(r): a "rank"
/// span covering the body, the runtime's send/wait/collective events, and —
/// after the body returns or throws — its CommStats folded into the rank's
/// metrics registry. `obs` must outlive the call and have at least `nranks`
/// rank observers.
RunResult run_ranks(int nranks, WorldOptions options,
                    const std::function<void(Comm&)>& body,
                    obs::Session* obs = nullptr);

/// Fault-free overload (the historical entry point).
RunResult run_ranks(int nranks, const std::function<void(Comm&)>& body,
                    obs::Session* obs = nullptr);

}  // namespace pagen::mps
