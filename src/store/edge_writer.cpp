#include "store/edge_writer.h"

#include <filesystem>
#include <optional>
#include <sstream>

#include "util/bytes_file.h"
#include "util/error.h"

namespace pagen::store {

std::string shard_path(const std::string& dir, int rank) {
  return dir + "/edges." + std::to_string(rank) + ".pcs";
}

std::string manifest_path(const std::string& dir) {
  return dir + "/store.manifest";
}

namespace {

/// The manifest body, one canonical spelling per manifest: load_manifest
/// accepts a body only when it re-spells to the same bytes.
std::string manifest_text(const StoreManifest& manifest) {
  std::ostringstream os;
  os << "pagen-store 4\n";
  os << "nodes " << manifest.num_nodes << "\n";
  os << "shards " << manifest.num_shards << "\n";
  os << "block_edges " << manifest.block_edges << "\n";
  for (int r = 0; r < manifest.num_shards; ++r) {
    const ShardSummary& s = manifest.shards[static_cast<std::size_t>(r)];
    os << "shard " << r << " " << s.edges << " " << s.blocks << " " << s.bytes
       << " " << std::hex << s.header_chain << std::dec << "\n";
  }
  return os.str();
}

}  // namespace

std::uint64_t write_manifest(const std::string& dir,
                             const StoreManifest& manifest) {
  const std::string text = manifest_text(manifest);
  return save_sealed(manifest_path(dir),
                     std::vector<std::uint8_t>(text.begin(), text.end()));
}

StoreManifest load_manifest(const std::string& dir) {
  std::vector<std::uint8_t> body;
  const std::optional<std::uint64_t> seal =
      try_load_sealed(manifest_path(dir), body);
  PAGEN_CHECK_MSG(seal, "no compressed-store manifest in " << dir);
  const std::string text(body.begin(), body.end());
  std::istringstream is(text);
  std::string tag;
  int version = 0;
  is >> tag >> version;
  PAGEN_CHECK_MSG(is.good() && tag == "pagen-store" && version == 4,
                  "bad compressed-store manifest header in " << dir);
  StoreManifest manifest;
  manifest.seal = *seal;
  is >> tag >> manifest.num_nodes;
  PAGEN_CHECK_MSG(is.good() && tag == "nodes", "malformed manifest: nodes");
  is >> tag >> manifest.num_shards;
  // Every shard line takes more than one byte, so a count beyond the body
  // size is forged and must not drive the allocation below.
  PAGEN_CHECK_MSG(is.good() && tag == "shards" && manifest.num_shards >= 1 &&
                      static_cast<std::size_t>(manifest.num_shards) <=
                          text.size(),
                  "malformed manifest: shards");
  is >> tag >> manifest.block_edges;
  PAGEN_CHECK_MSG(is.good() && tag == "block_edges" &&
                      manifest.block_edges >= 1 &&
                      manifest.block_edges <= kMaxBlockEdges,
                  "malformed manifest: block_edges");
  manifest.shards.resize(static_cast<std::size_t>(manifest.num_shards));
  for (int r = 0; r < manifest.num_shards; ++r) {
    int rank = -1;
    ShardSummary& s = manifest.shards[static_cast<std::size_t>(r)];
    is >> tag >> rank >> s.edges >> s.blocks >> s.bytes >> std::hex >>
        s.header_chain >> std::dec;
    PAGEN_CHECK_MSG(is.good() && tag == "shard" && rank == r,
                    "malformed manifest: shard " << r);
  }
  PAGEN_CHECK_MSG(manifest_text(manifest) == text,
                  "malformed manifest in " << dir
                                           << ": not in canonical form, or "
                                              "bytes after the last shard");
  return manifest;
}

CompressedEdgeWriter::CompressedEdgeWriter(const std::string& path,
                                           std::size_t block_edges)
    : os_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      block_edges_(block_edges) {
  PAGEN_CHECK_MSG(block_edges_ >= 1 && block_edges_ <= kMaxBlockEdges,
                  "block_edges must be in [1, " << kMaxBlockEdges << "]");
  PAGEN_CHECK_MSG(os_.is_open(), "cannot open " << path << " for writing");
  pending_.reserve(block_edges_);
  buf_.assign(kShardMagic, kShardMagic + sizeof(kShardMagic));
  write_bytes(buf_);
}

void CompressedEdgeWriter::append(const graph::Edge& edge) {
  PAGEN_CHECK_MSG(!finished_, "append on a finished shard writer");
  pending_.push_back(edge);
  if (pending_.size() >= block_edges_) flush_block();
}

void CompressedEdgeWriter::append(std::span<const graph::Edge> edges) {
  PAGEN_CHECK_MSG(!finished_, "append on a finished shard writer");
  for (const graph::Edge& e : edges) {
    pending_.push_back(e);
    if (pending_.size() >= block_edges_) flush_block();
  }
}

void CompressedEdgeWriter::flush_block() {
  if (pending_.empty()) return;
  const BlockHeader header = encode_block(pending_, payload_);
  buf_.clear();
  put_block_header(buf_, header);
  // put_block_header computed the definitive header checksum; chain it.
  const std::uint64_t header_sum =
      fnv1a(std::span(buf_).first(kBlockHeaderBytes - 8), kHeaderChecksumSeed);
  header_chain_ = fnv1a_u64(header_sum, header_chain_);
  write_bytes(buf_);
  write_bytes(payload_);
  edges_ += pending_.size();
  ++blocks_;
  pending_.clear();
}

ShardSummary CompressedEdgeWriter::finish() {
  PAGEN_CHECK_MSG(!finished_, "finish called twice on " << path_);
  flush_block();
  ShardTrailer trailer;
  trailer.num_blocks = blocks_;
  trailer.num_edges = edges_;
  trailer.header_chain = header_chain_;
  buf_.clear();
  put_trailer(buf_, trailer);
  write_bytes(buf_);
  os_.flush();
  PAGEN_CHECK_MSG(os_.good(), "shard write failed for " << path_);
  os_.close();
  finished_ = true;
  return {edges_, blocks_, bytes_, header_chain_};
}

void CompressedEdgeWriter::write_bytes(const std::vector<std::uint8_t>& bytes) {
  os_.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  bytes_ += bytes.size();
}

StoreWriter::StoreWriter(const std::string& dir, int num_shards,
                         std::size_t block_edges)
    : dir_(dir), block_edges_(block_edges) {
  PAGEN_CHECK_MSG(num_shards >= 1, "store needs at least one shard");
  std::filesystem::create_directories(dir);
  writers_.reserve(static_cast<std::size_t>(num_shards));
  for (int r = 0; r < num_shards; ++r) {
    writers_.push_back(std::make_unique<CompressedEdgeWriter>(
        shard_path(dir, r), block_edges_));
  }
}

void StoreWriter::append(Rank r, std::span<const graph::Edge> edges) {
  writers_.at(static_cast<std::size_t>(r))->append(edges);
}

StoreManifest StoreWriter::finish(NodeId num_nodes) {
  StoreManifest manifest;
  manifest.num_nodes = num_nodes;
  manifest.num_shards = static_cast<int>(writers_.size());
  manifest.block_edges = block_edges_;
  manifest.shards.reserve(writers_.size());
  for (auto& w : writers_) manifest.shards.push_back(w->finish());
  manifest.seal = write_manifest(dir_, manifest);
  return manifest;
}

}  // namespace pagen::store
