// The transport options of one mps World beyond its rank count, and their
// one check. core::ParallelOptions carries them as `transport`, so a
// generator hands them to mps::run_ranks as they are.
#pragma once

#include <cstdint>
#include <limits>

#include "mps/fault.h"

namespace pagen::mps {

class DeliveryHook;

/// Upper bound on rto_base_ms and rto_max_ms. ReliableChannel converts them
/// to nanoseconds (x 10^6), backs off by up to 2^5, and adds the result to
/// now_ns(); at this bound the first two stay within half of int64's range
/// and leave the other half (146 years of process uptime) to the third.
inline constexpr std::int64_t kMaxRtoMs =
    std::numeric_limits<std::int64_t>::max() / 2 / 32 / 1'000'000;

/// Runtime configuration of one World beyond its rank count. Defaults give
/// the historical fault-free, best-effort transport.
struct WorldOptions {
  /// Deterministic fault script (mps/fault.h). An active plan implies
  /// `reliable` — injected faults without the repair layer would just be
  /// corruption.
  FaultPlan fault_plan;

  /// Route every send through the ack/retransmit/dedup layer
  /// (mps/reliable.h). Safe — but pointless overhead — without faults.
  bool reliable = false;

  /// Retransmission timeout base and cap (exponential backoff between
  /// them), at most kMaxRtoMs. The base should comfortably exceed a poll
  /// round-trip.
  std::int64_t rto_base_ms = 25;
  std::int64_t rto_max_ms = 400;

  /// Schedule-control seam (mps/delivery_hook.h): when set, every data
  /// envelope is parked with the hook instead of a mailbox and the poll
  /// paths become the hook's scheduling points. Mutually exclusive with
  /// `reliable` and an active `fault_plan` — a hooked world is plain
  /// best-effort transport under a virtual scheduler. Non-owning; must
  /// outlive the World.
  DeliveryHook* delivery_hook = nullptr;
};

/// Reject a non-positive rto_base_ms, an rto_max_ms below it or above
/// kMaxRtoMs, and a delivery hook combined with reliable transport or an
/// active fault plan. Throws CheckError naming the option.
void check_world_options(const WorldOptions& options);

}  // namespace pagen::mps
