// genrt launch scaffolding: everything between a request check_request
// accepted (core/engine/engine.h) and "assembled ParallelResult" for a
// request/resolved generator.
//
// launch<Policy>() builds (or takes the caller's) partition, runs one
// genrt::Driver<P> per rank under mps::run_ranks, and assembles the result
// through the shared assemble_result() (emitter.h) plus the runtime's comm
// stats.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "baseline/pa_config.h"
#include "core/genrt/driver.h"
#include "core/genrt/emitter.h"
#include "core/load_stats.h"
#include "core/options.h"
#include "core/parallel_pa.h"
#include "graph/edge_list.h"
#include "mps/engine.h"
#include "obs/session.h"
#include "partition/partition.h"

namespace pagen::core::genrt {

/// The session's driver-thread observer, or null when observation is off.
inline obs::RankObserver* driver_observer(const ParallelOptions& options) {
  return options.obs != nullptr ? &options.obs->driver() : nullptr;
}

/// The run's partition: the caller's custom one (check_request matched it
/// to (n, ranks)) or a fresh build of the configured scheme.
inline std::shared_ptr<const partition::Partition> make_run_partition(
    NodeId n, const ParallelOptions& options, obs::RankObserver* drv) {
  if (options.custom_partition) return options.custom_partition;
  const auto sp = obs::span(drv, "partition_build");
  return partition::make_partition(options.scheme, n, options.ranks);
}

/// Run one Driver<P> per rank and assemble the result. The caller's
/// check_request has accepted config and options.
template <typename P>
ParallelResult launch(const PaConfig& config, const ParallelOptions& options) {
  // A job cancelled before launch never pays for a partition build or a
  // world spin-up (the svc worker checks admission-time cancels here).
  if (options.cancel_requested && options.cancel_requested()) {
    throw Cancelled();
  }
  obs::RankObserver* drv = driver_observer(options);
  const auto part = make_run_partition(config.n, options, drv);

  const auto nranks = static_cast<std::size_t>(options.ranks);
  std::vector<graph::EdgeList> edge_slots(nranks);
  LoadVector load_slots(nranks);
  std::vector<Count> restored_slots(nranks, 0);

  mps::RunResult run;
  {
    const auto world_span = obs::span(drv, "run_ranks");
    run = mps::run_ranks(
        options.ranks, options.transport,
        [&](mps::Comm& comm) {
          Driver<P> rank(config, options, *part, comm);
          rank.run();
          const auto slot = static_cast<std::size_t>(comm.rank());
          load_slots[slot] = rank.load();
          restored_slots[slot] = rank.restored_slots();
          if (auto* ob = comm.obs()) record_metrics(ob->metrics(), rank.load());
          edge_slots[slot] = rank.take_edges();
        },
        options.obs);
  }

  ParallelResult result = assemble_result(
      config, options, std::move(load_slots), std::move(edge_slots));
  result.comm_stats = run.rank_stats;
  result.wall_seconds = run.wall_seconds;
  result.respawns = run.respawns;
  for (const Count r : restored_slots) result.restored_slots += r;
  return result;
}

}  // namespace pagen::core::genrt
