// svc layer 2b — retry backoff and the per-spec failure circuit breaker.
//
// pagen-lint: no-wallclock — every scheduling decision here is a pure
// function of virtual ticks (the Server's retry clock) and the failure
// history; no wall-clock reads, no sleeps (docs/robustness.md §6).
//
// Both pieces are plain deterministic state, externally synchronized by the
// Server's mutex (like JobQueue). backoff_ticks gives a failed attempt a
// capped exponential re-dispatch delay on the virtual clock; CircuitBreaker
// fast-fails submits of a spec that failed k consecutive attempts, closing
// again after a cooldown with one probationary attempt (half-open).
#pragma once

#include <cstdint>
#include <map>

namespace pagen::svc {

/// Retry backoff in virtual ticks: kBackoffBase after the first failed
/// attempt, doubling per further failure up to kBackoffCap.
inline constexpr std::uint64_t kBackoffBase = 1;
inline constexpr std::uint64_t kBackoffCap = 8;

/// Virtual-tick delay before re-dispatching attempt `attempt` (1-based: the
/// attempt that just failed): 1, 2, 4, then 8 ticks. Deterministic — a
/// retry schedule is a pure function of the failure count, so a chaos run
/// replays identically from its seed.
[[nodiscard]] inline std::uint64_t backoff_ticks(std::uint32_t attempt) {
  std::uint64_t d = kBackoffBase;
  for (std::uint32_t i = 1; i < attempt && d < kBackoffCap; ++i) d *= 2;
  return d < kBackoffCap ? d : kBackoffCap;
}

/// Per-spec failure circuit breaker (keyed by spec_hash). After `threshold`
/// consecutive terminal failures of a spec, the circuit opens: submits of
/// that spec fast-fail (Reject::kCircuitOpen) until the virtual clock
/// passes the cooldown. The first submit after cooldown is probationary
/// (half-open): the breaker re-arms so one more failure reopens it
/// immediately, while a success resets the spec's history. threshold == 0
/// disables the breaker entirely.
class CircuitBreaker {
 public:
  CircuitBreaker(std::uint32_t threshold, std::uint64_t cooldown_ticks)
      : threshold_(threshold), cooldown_(cooldown_ticks) {}

  /// May a job of this spec be admitted at virtual tick `now`?
  [[nodiscard]] bool allow(std::uint64_t spec, std::uint64_t now) {
    if (threshold_ == 0) return true;
    const auto it = state_.find(spec);
    if (it == state_.end() || !it->second.open) return true;
    if (now < it->second.open_until) return false;
    // Cooldown elapsed: half-open. One probationary failure reopens.
    it->second.open = false;
    it->second.consecutive = threshold_ == 0 ? 0 : threshold_ - 1;
    return true;
  }

  /// A job of this spec failed terminally at tick `now`.
  void on_failure(std::uint64_t spec, std::uint64_t now) {
    if (threshold_ == 0) return;
    State& s = state_[spec];
    if (++s.consecutive >= threshold_) {
      s.open = true;
      s.open_until = now + cooldown_;
    }
  }

  /// A job of this spec completed: full reset of its failure history.
  void on_success(std::uint64_t spec) {
    if (threshold_ != 0) state_.erase(spec);
  }

  /// True when submits of this spec would currently fast-fail.
  [[nodiscard]] bool open(std::uint64_t spec, std::uint64_t now) const {
    const auto it = state_.find(spec);
    return it != state_.end() && it->second.open && now < it->second.open_until;
  }

 private:
  struct State {
    std::uint32_t consecutive = 0;
    bool open = false;
    std::uint64_t open_until = 0;
  };

  std::uint32_t threshold_;
  std::uint64_t cooldown_;
  std::map<std::uint64_t, State> state_;
};

}  // namespace pagen::svc
