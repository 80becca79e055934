// genrt launch scaffolding: everything between "validated config + options"
// and "assembled ParallelResult" for a request/resolved generator.
//
// launch<Policy>() builds (or validates) the partition, runs one
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
#include "util/error.h"

namespace pagen::core::genrt {

/// The session's driver-thread observer, or null when observation is off.
inline obs::RankObserver* driver_observer(const ParallelOptions& options) {
  return options.obs != nullptr ? &options.obs->driver() : nullptr;
}

/// The run's partition: the caller's custom one (validated against
/// (n, ranks)) or a fresh build of the configured scheme.
inline std::shared_ptr<const partition::Partition> make_run_partition(
    NodeId n, const ParallelOptions& options, obs::RankObserver* drv) {
  std::shared_ptr<const partition::Partition> part = options.custom_partition;
  if (part) {
    PAGEN_CHECK_MSG(
        part->num_nodes() == n && part->num_parts() == options.ranks,
        "custom partition does not match (n, ranks)");
  } else {
    const auto sp = obs::span(drv, "partition_build");
    part = partition::make_partition(options.scheme, n, options.ranks);
  }
  return part;
}

/// Run one Driver<P> per rank and assemble the result. The caller has
/// already validated config and options.
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

  mps::WorldOptions world_options;
  world_options.fault_plan = options.fault_plan;
  world_options.reliable = options.reliable;
  world_options.max_respawns = options.max_respawns;
  world_options.rto_base_ms = options.rto_base_ms;
  world_options.rto_max_ms = options.rto_max_ms;
  world_options.delivery_hook = options.delivery_hook;
  if (options.delivery_hook != nullptr) {
    // The World's own constructor re-checks reliable/fault incompatibility;
    // checkpointing is a generator-level concern, so gate it here.
    PAGEN_CHECK_MSG(options.checkpoint_dir.empty(),
                    "delivery_hook is incompatible with checkpointing");
  }

  mps::RunResult run;
  {
    const auto world_span = obs::span(drv, "run_ranks");
    run = mps::run_ranks(
        options.ranks, world_options,
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
