// Block-streaming reader of one compressed shard (docs/storage.md).
//
// EdgeShardReader decodes a shard file block by block: the memory held at
// any instant is one compressed block plus its decoded edges, never the
// shard. Every byte is verified on the way through — header checksum,
// payload checksum, bounds on the claimed counts before any allocation,
// and finally the trailer's chained header checksum and totals — so a
// truncated file, a flipped bit anywhere, or a forged header raises
// CheckError instead of yielding a single wrong edge.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "store/format.h"
#include "util/types.h"

namespace pagen::store {

class EdgeShardReader {
 public:
  /// Opens `path` and verifies the shard magic (throws CheckError on a
  /// missing file or wrong magic). `max_block_edges` bounds what any block
  /// header may claim — pass the manifest's block_edges so a forged count
  /// raises even below the absolute kMaxBlockEdges cap.
  explicit EdgeShardReader(const std::string& path,
                           std::uint32_t max_block_edges = kMaxBlockEdges);

  EdgeShardReader(const EdgeShardReader&) = delete;
  EdgeShardReader& operator=(const EdgeShardReader&) = delete;

  /// Stream every block through `fn` in file order, verifying everything;
  /// returns the validated trailer. An empty `fn` skips only the decode:
  /// every other check still runs (see verify()). Single use: the reader's
  /// file position is at EOF afterwards. Not thread-safe — use one reader
  /// per thread.
  ShardTrailer visit(
      const std::function<void(std::span<const graph::Edge>)>& fn);

  /// The verify pass: visit() without decoding a block. Checks every
  /// header checksum and bound, every payload checksum, the trailer's
  /// header chain and its counts; returns the validated trailer.
  ShardTrailer verify() { return visit({}); }

  /// Decode the whole shard into one list (tests and small stores).
  [[nodiscard]] graph::EdgeList read_all();

 private:
  std::ifstream is_;
  std::string path_;
  std::uint32_t max_block_edges_;
  std::vector<std::uint8_t> head_buf_;
  std::vector<std::uint8_t> payload_buf_;
  graph::EdgeList block_buf_;
};

}  // namespace pagen::store
