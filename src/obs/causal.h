// Offline causal-chain reconstruction from merged per-rank traces.
//
// With causal tracing on (Config::causal), the mps rank records three
// families of events:
//
//  * flow events ("chain"): kFlowStart on the requester when a request
//    leaves, kFlowStep on the owner when it arrives, kFlowEnd on the
//    requester when the resolution is accepted — all carrying the same
//    correlation id (the global slot id of the requesting slot), which the
//    Chrome/Perfetto export turns into "s"/"t"/"f" flow arrows across rank
//    tracks;
//  * chain events ("chain_len"): one per resolved slot, carrying the slot's
//    dependency-chain length |D_t| (Theorem 3.3);
//  * the phase spans PR 1 already emits ("generate"/"drain"/"termination").
//
// This module reconstructs the run from those events alone: the
// chain-length distribution (which on a deterministic x=1 run must exactly
// match bench/thm33_dependency_chains), a per-hop latency breakdown
// (request wire time s->t, owner resolve time t->f), and the critical path
// — the single slowest request->resolve flow — attributed to the rank and
// phase it stalled in. write_chain_report renders the whole analysis as a
// deterministic JSON document ("pagen.chains.v1").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/types.h"

namespace pagen::obs {

class Session;
class Tracer;

/// Result of reconstructing one run's causal record.
struct ChainReport {
  // --- Dependency chains (Theorem 3.3) ---
  Count chain_records = 0;          ///< resolved slots with a chain event
  std::uint64_t max_chain_length = 0;
  Histogram chain_length;           ///< |D_t| distribution across all ranks

  // --- Cross-rank flows (request -> resolve) ---
  Count flows = 0;          ///< completed start/end pairs
  Count orphan_starts = 0;  ///< kFlowStart without a kFlowEnd (ring drop /
                            ///< abandoned retry round)
  Count orphan_ends = 0;    ///< kFlowEnd whose start was overwritten
  Histogram request_hop_ns;  ///< s -> t: request wire + queue time
  Histogram resolve_hop_ns;  ///< t -> f: owner resolve + response time
  Histogram flow_ns;         ///< s -> f: full request round trip

  /// The slowest completed flow of the run.
  struct Critical {
    std::uint64_t id = 0;        ///< global slot id of the request
    int requester = -1;          ///< rank that issued it (s/f track)
    int owner = -1;              ///< rank that resolved it (t track), -1 if
                                 ///< the step event was dropped
    std::int64_t start_ns = 0;   ///< kFlowStart timestamp
    std::int64_t dur_ns = 0;     ///< s -> f
    std::string phase = "none";  ///< enclosing phase span on the requester
  } critical;
};

/// Reconstruct chains from raw tracers (index order = track order). Null
/// entries are skipped. Must run post-join, like any trace export.
[[nodiscard]] ChainReport reconstruct_chains(
    const std::vector<const Tracer*>& tracers);

/// Convenience overload over a session's rank tracks (driver included —
/// it carries no causal events but costs nothing to scan).
[[nodiscard]] ChainReport reconstruct_chains(const Session& session);

/// Deterministic chain-analytics JSON ({"schema": "pagen.chains.v1", ...}).
void write_chain_report(std::ostream& os, const ChainReport& report);

}  // namespace pagen::obs
