// Corrupt-shard detection (docs/storage.md §2): every way a compressed
// shard can rot on disk — truncation, a flipped header byte, a flipped
// payload byte, a forged overlong edge count — must raise CheckError
// before a single damaged edge escapes, from the decoding reader and from
// the verify pass alike, and the damaged artifact must be quarantinable
// through the svc `*.quarantined` rename path so the serving layer
// regenerates instead of serving poison.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "store/edge_writer.h"
#include "store/format.h"
#include "store/shard_reader.h"
#include "svc/cache.h"
#include "util/error.h"

namespace pagen::store {
namespace {

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("pagen_store_corrupt_" + std::to_string(counter_++)))
               .string();
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/shard.pcs";
    CompressedEdgeWriter writer(path_, kBlockEdges);
    for (NodeId u = 1; u <= 3000; ++u) {
      writer.append({u, u / 2});
    }
    summary_ = writer.finish();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// XOR one byte of the shard file in place.
  void flip_byte(std::uintmax_t offset, std::uint8_t mask = 0x01) const {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ mask));
  }

  /// Payload size of block 0, read back from its (intact) header.
  std::uintmax_t first_block_payload_bytes() const {
    std::ifstream f(path_, std::ios::binary);
    f.seekg(sizeof(kShardMagic));
    std::vector<std::uint8_t> head(kBlockHeaderBytes);
    f.read(reinterpret_cast<char*>(head.data()),
           static_cast<std::streamsize>(head.size()));
    return get_block_header(head, kBlockEdges).payload_bytes;
  }

  /// The verify pass, which decodes nothing, must reject the shard.
  void expect_verify_rejects(
      std::uint32_t max_block_edges = kBlockEdges) const {
    EXPECT_THROW((void)EdgeShardReader(path_, max_block_edges).verify(),
                 CheckError);
  }

  /// The reader and the verify pass must reject the shard, and the file
  /// must be quarantinable via the svc rename path (the quarantine
  /// contract: artifact -> artifact.quarantined).
  void expect_rejected_and_quarantined() const {
    EdgeShardReader reader(path_, kBlockEdges);
    EXPECT_THROW((void)reader.read_all(), CheckError);
    expect_verify_rejects();
    EXPECT_TRUE(svc::quarantine_file(path_));
    EXPECT_FALSE(std::filesystem::exists(path_));
    EXPECT_TRUE(std::filesystem::exists(path_ + ".quarantined"));
  }

  static constexpr std::uint32_t kBlockEdges = 1024;
  std::string dir_;
  std::string path_;
  ShardSummary summary_{};
  static int counter_;
};
int StoreCorruptionTest::counter_ = 0;

TEST_F(StoreCorruptionTest, IntactShardReads) {
  EdgeShardReader reader(path_, kBlockEdges);
  EXPECT_EQ(reader.read_all().size(), 3000u);
}

TEST_F(StoreCorruptionTest, IntactShardVerifies) {
  EdgeShardReader reader(path_, kBlockEdges);
  const ShardTrailer trailer = reader.verify();
  EXPECT_EQ(trailer.num_edges, 3000u);
  EXPECT_EQ(trailer.num_blocks, summary_.blocks);
  EXPECT_EQ(trailer.header_chain, summary_.header_chain);
}

TEST_F(StoreCorruptionTest, TruncatedBlockRejected) {
  // Cut the file mid-payload of the last block (drop the trailer and the
  // final payload bytes).
  std::filesystem::resize_file(path_,
                               std::filesystem::file_size(path_) -
                                   kTrailerBytes - 7);
  expect_rejected_and_quarantined();
}

TEST_F(StoreCorruptionTest, MissingTrailerRejected) {
  // A cleanly block-aligned file without its trailer is still truncated:
  // an unsealed (crashed) writer must never pass as a complete shard.
  std::filesystem::resize_file(
      path_, std::filesystem::file_size(path_) - kTrailerBytes);
  expect_rejected_and_quarantined();
}

TEST_F(StoreCorruptionTest, FlippedHeaderByteRejected) {
  flip_byte(sizeof(kShardMagic) + 4);  // inside block 0's header
  expect_rejected_and_quarantined();
}

TEST_F(StoreCorruptionTest, FlippedPayloadByteRejected) {
  flip_byte(sizeof(kShardMagic) + kBlockHeaderBytes + 3);
  expect_rejected_and_quarantined();
}

TEST_F(StoreCorruptionTest, FlippedMagicRejected) {
  flip_byte(0);
  EXPECT_THROW(EdgeShardReader(path_, kBlockEdges), CheckError);
  expect_verify_rejects();
}

TEST_F(StoreCorruptionTest, ForgedOverlongEdgeCountRejected) {
  // Re-sign block 0's header with an edge count far beyond the manifest's
  // block size (checksum valid, so only the bounds check can catch it).
  BlockHeader forged;
  forged.first_u = 1;
  forged.first_v = 0;
  forged.edge_count = kBlockEdges * 64;
  forged.payload_bytes = 8;
  std::vector<std::uint8_t> bytes;
  put_block_header(bytes, forged);
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(sizeof(kShardMagic));
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  f.close();
  expect_rejected_and_quarantined();
}

TEST_F(StoreCorruptionTest, ForgedCountBeyondAbsoluteCapRejected) {
  // Even a reader with no manifest bound enforces kMaxBlockEdges, so a
  // forged header can never drive a giant allocation.
  BlockHeader forged;
  forged.edge_count = kMaxBlockEdges + 1;
  forged.payload_bytes = 8;
  std::vector<std::uint8_t> bytes;
  put_block_header(bytes, forged);
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(sizeof(kShardMagic));
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  f.close();
  EdgeShardReader reader(path_);  // default: absolute cap only
  EXPECT_THROW((void)reader.read_all(), CheckError);
  expect_verify_rejects(kMaxBlockEdges);
}

TEST_F(StoreCorruptionTest, TrailerCountMismatchRejected) {
  // Rewrite the trailer claiming one edge fewer (valid trailer checksum):
  // the reader's totals cross-check must still reject the shard.
  ShardTrailer lying;
  lying.num_blocks = summary_.blocks;
  lying.num_edges = summary_.edges - 1;
  lying.header_chain = kFnvOffset;
  std::vector<std::uint8_t> bytes;
  put_trailer(bytes, lying);
  std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path_) -
                                      kTrailerBytes));
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  f.close();
  expect_rejected_and_quarantined();
}

TEST_F(StoreCorruptionTest, VisitStopsBeforeDeliveringDamagedEdges) {
  // Flip a byte in the *second* block: every edge delivered before the
  // throw must come from fully verified blocks.
  const std::uintmax_t second_header =
      sizeof(kShardMagic) + kBlockHeaderBytes + first_block_payload_bytes();
  flip_byte(second_header + kBlockHeaderBytes + 1);
  EdgeShardReader reader(path_, kBlockEdges);
  Count delivered = 0;
  EXPECT_THROW(reader.visit([&delivered](std::span<const graph::Edge> batch) {
    delivered += batch.size();
  }),
               CheckError);
  EXPECT_EQ(delivered, kBlockEdges) << "only block 0 may be delivered";
  expect_verify_rejects();
}

}  // namespace
}  // namespace pagen::store
