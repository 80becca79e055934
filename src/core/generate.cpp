#include "core/generate.h"

#include <span>
#include <utility>

#include "core/engine/engine.h"
#include "store/edge_writer.h"
#include "util/error.h"

namespace pagen::core {

ParallelResult generate(const PaConfig& config, const ParallelOptions& options) {
  const Engine& engine = EngineRegistry::instance().require(options.engine);
  check_request(engine, config, options);
  if (options.store_dir.empty()) return engine.run(config, options);

  // Compressed-store tap: every engine already streams its edges through
  // the batched sink, so the store rides that path — one truncating shard
  // writer per rank slot (each rank thread appends only to its own writer,
  // no locking), sealed with the v4 manifest after the run. check_request
  // has ruled out the re-emission paths (crash respawn, resume), so the
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
