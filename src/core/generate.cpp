#include "core/generate.h"

#include <span>
#include <utility>

#include "core/engine/engine.h"
#include "store/edge_writer.h"
#include "util/error.h"

namespace pagen::core {

ParallelResult generate(const PaConfig& config, const ParallelOptions& options) {
  const Engine& engine = EngineRegistry::instance().require(options.engine);
  check_engine_options(engine, config, options);
  if (options.store_dir.empty()) return engine.run(config, options);

  // Compressed-store tap: every engine already streams its edges through
  // the batched sink, so the store rides that path — one truncating shard
  // writer per rank slot (each rank thread appends only to its own writer,
  // no locking), sealed with the v3 manifest after the run. The store must
  // see every edge exactly once, which rules out the at-least-once
  // re-emission paths: a crash respawn or a checkpoint resume would append
  // restored edges again.
  PAGEN_CHECK_MSG(!options.fault_plan.has_crash(),
                  "store_dir cannot be combined with crash injection: a "
                  "respawned rank re-emits restored edges, duplicating "
                  "blocks in the store");
  PAGEN_CHECK_MSG(!options.resume,
                  "store_dir cannot be combined with resume: restored edges "
                  "are re-emitted, duplicating blocks in the store");

  store::StoreWriter writer(options.store_dir, options.ranks,
                            options.store_block_edges);
  ParallelOptions inner = options;
  const auto user_sink = options.edge_batch_sink;
  inner.edge_batch_sink = [&writer, &user_sink](
                              Rank r, std::span<const graph::Edge> edges) {
    writer.append(r, edges);
    if (user_sink) user_sink(r, edges);
  };
  ParallelResult result = engine.run(config, inner);
  const store::StoreManifest manifest = writer.finish(config.n);
  result.store_bytes = manifest.total_bytes();
  PAGEN_CHECK_MSG(manifest.total_edges() == result.total_edges,
                  "store edge count " << manifest.total_edges()
                                      << " disagrees with the run's "
                                      << result.total_edges);
  return result;
}

}  // namespace pagen::core
