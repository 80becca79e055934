// The output path of every engine (mps, commfree, seq-copy, seq-bb): one
// per-rank edge emitter.
//
// pagen-lint: hot-path — emit() runs once per generated edge.
//
// A rank hands every edge it produces to its EdgeEmitter, which keeps it in
// the rank's list (gather_edges / keep_shards) and feeds edge_batch_sink one
// span of exactly edge_batch_capacity edges whenever its buffer fills, then
// the remainder at finish() — in emission order, on the rank's thread.
// core::generate gives every rank of every world a fresh emitter and calls
// finish() once the engine's rank body returns. A rank that unwinds
// (cancel, crash) never reaches finish(): its buffered tail is dropped and
// its kept list dies with it, and a relaunch emits into a fresh emitter.
#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/options.h"
#include "graph/edge_list.h"
#include "util/types.h"

namespace pagen::core::genrt {

class EdgeEmitter {
 public:
  /// `options` must outlive the emitter, which calls its sink in place.
  /// @param expected kept-list reservation, an upper bound on the rank's
  ///   edges.
  EdgeEmitter(const ParallelOptions& options, Rank rank, Count expected)
      : sink_(options.edge_batch_sink ? &options.edge_batch_sink : nullptr),
        rank_(rank),
        keep_(options.gather_edges || options.keep_shards) {
    if (keep_) kept_.reserve(expected);
    if (sink_ != nullptr) batch_.reserve(ParallelOptions::edge_batch_capacity);
  }

  void emit(const graph::Edge& e) {
    if (keep_) kept_.push_back(e);
    if (sink_ != nullptr) {
      batch_.push_back(e);
      if (batch_.size() == ParallelOptions::edge_batch_capacity) flush();
    }
    ++emitted_;
  }

  /// End of the rank's run: hand the sink the partial last batch.
  void finish() {
    if (!batch_.empty()) flush();
  }

  /// Edges emitted so far (RankLoad::edges).
  [[nodiscard]] Count emitted() const { return emitted_; }

  /// The kept list (empty unless gathering or keeping shards).
  [[nodiscard]] graph::EdgeList take_kept() { return std::move(kept_); }

 private:
  void flush() {
    (*sink_)(rank_, batch_);
    batch_.clear();
  }

  const std::function<void(Rank, std::span<const graph::Edge>)>* sink_;
  Rank rank_;
  bool keep_;
  Count emitted_ = 0;
  graph::EdgeList kept_;
  graph::EdgeList batch_;
};

/// The x = 1 targets row: targets[e.u] = e.v, kNil for every node without an
/// edge (node 0). Every node t >= 1 emits exactly one edge (t, F_t), so this
/// is F_t for a complete edge list in any order.
[[nodiscard]] inline std::vector<NodeId> targets_from_edges(
    const graph::EdgeList& edges, NodeId n) {
  std::vector<NodeId> targets(n, kNil);
  for (const graph::Edge& e : edges) targets[e.u] = e.v;
  return targets;
}

}  // namespace pagen::core::genrt
