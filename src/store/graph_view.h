// ShardedGraphView: a compressed store re-opened as a streamable graph.
//
// The view loads only the manifest; edges stay on disk until a kernel
// pulls them through an EdgeSource, one decoded block per active shard
// stream, plus the merged stream's read-ahead. The constructor's memory
// budget is a *guarantee check*: the view computes the worst-case working
// set of streaming all shards concurrently (what the distributed kernels
// do — one rank thread per shard) or of the merged stream, and refuses to
// open when it would not fit, instead of drifting over the budget at
// runtime. docs/storage.md §4 spells out the accounting.
#pragma once

#include <cstdint>
#include <string>

#include "graph/edge_list.h"
#include "graph/edge_source.h"
#include "store/edge_writer.h"
#include "util/types.h"

namespace pagen::store {

class ShardedGraphView {
 public:
  /// Opens `dir`'s manifest. `memory_budget_bytes` bounds the decoded +
  /// compressed working set of streaming every shard concurrently, and of
  /// the merged stream; 0 means unbudgeted. Throws CheckError when the
  /// manifest is missing, fails its seal or is malformed, or the budget
  /// cannot hold the larger of the two.
  explicit ShardedGraphView(std::string dir,
                            std::uint64_t memory_budget_bytes = 0);

  [[nodiscard]] const StoreManifest& manifest() const { return manifest_; }

  /// Worst-case bytes one shard stream holds (one decoded block + one
  /// compressed block at the varint bound, plus I/O slack).
  [[nodiscard]] std::uint64_t per_shard_stream_bytes() const;

  /// Worst-case bytes the merged stream holds: one shard stream plus the
  /// decoded blocks of its read-ahead queue and the caller's current block.
  [[nodiscard]] std::uint64_t merged_stream_bytes() const;

  /// The verify pass over every shard, in rank order, decoding nothing:
  /// each block's header checksum and bounds, each payload checksum, and
  /// each trailer's counts and header chain, compared with the manifest.
  /// Throws CheckError naming the first failing shard.
  void verify() const;

  /// The store as a kernel-ready source: num_shards streams, each decoding
  /// its shard block by block and verifying every checksum plus the
  /// manifest's edge count and header chain; a CheckError names the shard.
  /// Safe for concurrent distinct-shard visits (every visit opens its own
  /// reader); a shard outside [0, num_shards) throws CheckError before any
  /// file is opened. The source owns copies of what it needs and stays
  /// valid after the view is destroyed.
  [[nodiscard]] graph::EdgeSource edge_source() const;

  /// The store as a single merged stream (shard 0..P-1 in rank order, one
  /// batch per block) — num_shards == 1, so a kernel consumes it on one
  /// rank with zero message traffic. Each visit starts one helper thread
  /// that reads, verifies and decodes a fixed number of blocks ahead while
  /// the visitor runs; the visitor runs only on the calling thread. The
  /// checks are those of edge_source(); a CheckError raised on the helper
  /// is rethrown on the caller after the blocks before it, and a visitor
  /// that throws stops and joins the helper before its exception leaves.
  /// Working set: merged_stream_bytes().
  [[nodiscard]] graph::EdgeSource merged_edge_source() const;

  /// Decode one whole shard (tests / small stores; ignores the budget).
  [[nodiscard]] graph::EdgeList load_shard(int rank) const;

  /// Decode every shard into one list, in rank order — the gather order of
  /// the run that wrote the store (small stores; ignores the budget).
  [[nodiscard]] graph::EdgeList load_all() const;

 private:
  std::string dir_;
  std::uint64_t budget_;
  StoreManifest manifest_;
};

}  // namespace pagen::store
