// Common scalar types shared by every pagen module.
#pragma once

#include <cstdint>

namespace pagen {

/// Vertex identifier. The paper's 10^9 nodes fit 32 bits (2^32 ~ 4.29e9),
/// but slot indices u * x + e and edge totals reach n * x: 5e9 at the
/// paper's n = 1e9, x = 5. NodeId stays 64-bit so they never overflow;
/// the per-node tables store u32 instead whenever the values fit (the
/// commfree row table while n <= 2^32 - 1, the degree kernel's counters
/// while 2m < 2^32).
using NodeId = std::uint64_t;

/// Count of edges / messages / generic 64-bit tallies.
using Count = std::uint64_t;

/// Rank (processor) index inside a message-passing world.
using Rank = std::int32_t;

/// Invalid / "not yet resolved" sentinel used for F_t values (the paper's
/// NILL). NodeId is unsigned so the all-ones pattern is never a valid node.
inline constexpr NodeId kNil = ~NodeId{0};

}  // namespace pagen
