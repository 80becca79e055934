#include "store/shard_reader.h"

#include <cstring>

#include "util/error.h"

namespace pagen::store {

EdgeShardReader::EdgeShardReader(const std::string& path,
                                 std::uint32_t max_block_edges)
    : is_(path, std::ios::binary),
      path_(path),
      max_block_edges_(max_block_edges) {
  PAGEN_CHECK_MSG(is_.is_open(), "cannot open shard " << path);
  char magic[sizeof(kShardMagic)];
  is_.read(magic, sizeof(magic));
  PAGEN_CHECK_MSG(
      is_.good() && std::memcmp(magic, kShardMagic, sizeof(magic)) == 0,
      "bad shard magic in " << path);
}

ShardTrailer EdgeShardReader::visit(
    const std::function<void(std::span<const graph::Edge>)>& fn) {
  Count blocks = 0;
  Count edges = 0;
  std::uint64_t chain = kFnvOffset;
  for (;;) {
    head_buf_.resize(kBlockHeaderBytes);
    is_.read(reinterpret_cast<char*>(head_buf_.data()),
             static_cast<std::streamsize>(head_buf_.size()));
    PAGEN_CHECK_MSG(
        is_.gcount() == static_cast<std::streamsize>(kBlockHeaderBytes),
        "truncated shard " << path_ << " (mid-header after " << blocks
                           << " blocks)");
    if (is_trailer(head_buf_)) {
      const ShardTrailer trailer = get_trailer(head_buf_);
      PAGEN_CHECK_MSG(trailer.num_blocks == blocks &&
                          trailer.num_edges == edges,
                      "shard trailer counts disagree with content of "
                          << path_);
      PAGEN_CHECK_MSG(trailer.header_chain == chain,
                      "shard header chain mismatch in " << path_);
      is_.peek();
      PAGEN_CHECK_MSG(is_.eof(), "trailing bytes after trailer in " << path_);
      return trailer;
    }
    const BlockHeader header = get_block_header(head_buf_, max_block_edges_);
    chain = fnv1a_u64(header.header_checksum, chain);
    payload_buf_.resize(header.payload_bytes);
    is_.read(reinterpret_cast<char*>(payload_buf_.data()),
             static_cast<std::streamsize>(payload_buf_.size()));
    PAGEN_CHECK_MSG(
        is_.gcount() == static_cast<std::streamsize>(header.payload_bytes),
        "truncated shard " << path_ << " (mid-block " << blocks << ")");
    ++blocks;
    edges += header.edge_count;
    if (!fn) {
      check_payload(header, payload_buf_);
      continue;
    }
    block_buf_.clear();
    decode_block(header, payload_buf_, block_buf_);
    fn(block_buf_);
  }
}

graph::EdgeList EdgeShardReader::read_all() {
  graph::EdgeList all;
  (void)visit([&all](std::span<const graph::Edge> block) {
    all.insert(all.end(), block.begin(), block.end());
  });
  return all;
}

}  // namespace pagen::store
