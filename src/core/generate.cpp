#include "core/generate.h"

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/engine/engine.h"
#include "core/genrt/emitter.h"
#include "core/load_stats.h"
#include "graph/edge_list.h"
#include "mps/engine.h"
#include "obs/session.h"
#include "partition/partition.h"
#include "store/edge_writer.h"
#include "util/error.h"
#include "util/timer.h"

namespace pagen::core {
namespace {

/// Run `engine`'s rank body on every rank of one mps world and assemble the
/// result. Each rank emits into a fresh emitter, and its pa.* metrics are
/// recorded once, after its body returns.
ParallelResult run_world(const Engine& engine, const PaConfig& config,
                         const ParallelOptions& options,
                         const partition::Partition& part,
                         obs::RankObserver* drv) {
  const auto nranks = static_cast<std::size_t>(options.ranks);
  std::vector<graph::EdgeList> kept(nranks);
  LoadVector loads(nranks);
  std::vector<Count> restored(nranks, 0);

  mps::RunResult run;
  {
    const auto world_span = obs::span(drv, "run_ranks");
    run = mps::run_ranks(
        options.ranks, options.transport,
        [&](mps::Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          // Every engine emits at most x edges per owned node.
          genrt::EdgeEmitter out(options, comm.rank(),
                                 part.part_size(comm.rank()) * config.x);
          RankRun rank = engine.run(config, options, part, comm, out);
          out.finish();
          rank.load.edges = out.emitted();
          if (auto* ob = comm.obs()) record_metrics(ob->metrics(), rank.load);
          loads[r] = rank.load;
          restored[r] = rank.restored_slots;
          kept[r] = out.take_kept();
        },
        options.obs);
  }

  ParallelResult result;
  for (const RankLoad& l : loads) result.total_edges += l.edges;
  result.loads = std::move(loads);
  if (options.gather_edges) {
    result.edges.reserve(result.total_edges);
    for (graph::EdgeList& shard : kept) {
      result.edges.insert(result.edges.end(), shard.begin(), shard.end());
      if (!options.keep_shards) shard = graph::EdgeList{};
    }
    if (config.x == 1) {
      result.targets = genrt::targets_from_edges(result.edges, config.n);
    }
  }
  if (options.keep_shards) result.shards = std::move(kept);
  result.comm_stats = std::move(run.rank_stats);
  result.wall_seconds = run.wall_seconds;
  for (const Count r : restored) result.restored_slots += r;
  return result;
}

/// Build the partition and run one world. This is the one place a run
/// restarts: an injected crash aborts the world, and — when max_respawns
/// allows — every rank is relaunched on a fresh world with resume on and
/// the plan's crash consumed, so each restores its own checkpoint (or
/// cold-starts without a checkpoint_dir). A plan scripts one crash, so the
/// relaunched world runs crash-free. The result and the obs metrics
/// describe the world that completed (the trace keeps both worlds'
/// events); wall_seconds covers both.
ParallelResult launch(const Engine& engine, const PaConfig& config,
                      const ParallelOptions& options) {
  obs::RankObserver* drv =
      options.obs != nullptr ? &options.obs->driver() : nullptr;
  std::shared_ptr<const partition::Partition> part = options.custom_partition;
  if (!part) {
    const auto sp = obs::span(drv, "partition_build");
    part = partition::make_partition(options.scheme, config.n, options.ranks);
  }

  std::vector<obs::MetricsRegistry> before_crash;
  if (options.obs != nullptr && options.transport.fault_plan.has_crash()) {
    for (int r = 0; r < options.ranks; ++r) {
      before_crash.push_back(options.obs->rank(r).metrics());
    }
  }
  const Timer first_world;
  try {
    return run_world(engine, config, options, *part, drv);
  } catch (const mps::InjectedCrash&) {
    if (options.max_respawns < 1) throw;
  }
  const double crashed_seconds = first_world.seconds();
  for (std::size_t r = 0; r < before_crash.size(); ++r) {
    options.obs->rank(static_cast<int>(r)).metrics() =
        std::move(before_crash[r]);
  }
  if (drv != nullptr) drv->trace().instant("relaunch");
  ParallelOptions relaunch = options;
  relaunch.resume = true;
  relaunch.transport.fault_plan.crash_rank = -1;
  ParallelResult result = run_world(engine, config, relaunch, *part, drv);
  result.respawns = 1;
  result.wall_seconds += crashed_seconds;
  return result;
}

}  // namespace

ParallelResult generate(const PaConfig& config, const ParallelOptions& options) {
  const Engine& engine = EngineRegistry::instance().require(options.engine);
  check_request(engine, config, options);
  // A job cancelled before launch pays for no partition build or world
  // spin-up, and never reaches the store tap below, whose writer truncates
  // the shards of whatever store sits at store_dir.
  if (options.cancel_requested && options.cancel_requested()) {
    throw Cancelled();
  }
  if (options.store_dir.empty()) return launch(engine, config, options);

  // Compressed-store tap: every engine streams its edges through the
  // batched sink, so the store rides that path — one truncating shard
  // writer per rank slot (each rank thread appends only to its own writer,
  // no locking), sealed with the v4 manifest after the run. check_request
  // has ruled out the re-emission paths (crash relaunch, resume), so the
  // store sees every edge exactly once.
  store::StoreWriter writer(options.store_dir, options.ranks,
                            options.store_block_edges);
  ParallelOptions inner = options;
  const auto user_sink = options.edge_batch_sink;
  inner.edge_batch_sink = [&writer, &user_sink](
                              Rank r, std::span<const graph::Edge> edges) {
    writer.append(r, edges);
    if (user_sink) user_sink(r, edges);
  };
  ParallelResult result = launch(engine, config, inner);
  const store::StoreManifest manifest = writer.finish(config.n);
  result.store_bytes = manifest.total_bytes();
  PAGEN_CHECK_MSG(manifest.total_edges() == result.total_edges,
                  "store edge count " << manifest.total_edges()
                                      << " disagrees with the run's "
                                      << result.total_edges);
  return result;
}

}  // namespace pagen::core
