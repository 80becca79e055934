#include "store/graph_view.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "store/shard_reader.h"
#include "util/error.h"

namespace pagen::store {
namespace {

/// Decoded blocks the merged stream may queue ahead of its visitor.
constexpr std::uint64_t kReadAheadBlocks = 4;

/// One shard stream, verified against the manifest's per-shard edge count
/// and header chain; an empty `visit` verifies without decoding. A
/// CheckError names the shard.
void stream_shard(const std::string& dir, const StoreManifest& manifest,
                  int shard, const graph::EdgeVisitor& visit) {
  PAGEN_CHECK_MSG(shard >= 0 && shard < manifest.num_shards,
                  "shard " << shard << " out of range [0, "
                           << manifest.num_shards << ")");
  const ShardSummary& want = manifest.shards[static_cast<std::size_t>(shard)];
  try {
    EdgeShardReader reader(
        shard_path(dir, shard),
        static_cast<std::uint32_t>(manifest.block_edges));
    const ShardTrailer trailer = reader.visit(visit);
    PAGEN_CHECK_MSG(trailer.num_edges == want.edges,
                    "edge count disagrees with the manifest");
    PAGEN_CHECK_MSG(trailer.header_chain == want.header_chain,
                    "header chain disagrees with the manifest");
  } catch (const CheckError& e) {
    throw CheckError("shard " + std::to_string(shard) + ": " + e.what());
  }
}

/// The merged stream's read-ahead. One helper thread streams shards
/// 0..P-1 in rank order through stream_shard, so every check runs as in a
/// serial pass, and queues each decoded block for the caller's thread, at
/// most kReadAheadBlocks ahead. Blocks travel in recycled buffers. The
/// destructor stops and joins the helper, on exception paths too.
class ReadAhead {
 public:
  /// `dir` and `manifest` must outlive this object.
  ReadAhead(const std::string& dir, const StoreManifest& manifest)
      : helper_([this, &dir, &manifest] { produce(dir, manifest); }) {}

  ~ReadAhead() {
    {
      const std::lock_guard lock(mu_);
      stopped_ = true;
    }
    space_.notify_one();
    helper_.join();
  }

  ReadAhead(const ReadAhead&) = delete;
  ReadAhead& operator=(const ReadAhead&) = delete;

  /// The next block in stream order, valid until the next call, or nullptr
  /// at the end of the stream. A helper-side error is rethrown here once
  /// the blocks decoded before it have been returned.
  const graph::EdgeList* next() {
    std::unique_lock lock(mu_);
    if (held_.capacity() > 0) free_.push_back(std::move(held_));
    ready_.wait(lock, [this] { return !queue_.empty() || done_; });
    if (queue_.empty()) {
      if (error_) std::rethrow_exception(error_);
      return nullptr;
    }
    held_ = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    space_.notify_one();
    return &held_;
  }

 private:
  /// Unwinds the helper out of the reader once the caller has stopped.
  struct Stopped {};

  void produce(const std::string& dir, const StoreManifest& manifest) {
    std::exception_ptr error;
    try {
      for (int r = 0; r < manifest.num_shards; ++r) {
        stream_shard(dir, manifest, r,
                     [this](std::span<const graph::Edge> b) { push(b); });
      }
    } catch (const Stopped&) {
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard lock(mu_);
      done_ = true;
      error_ = error;
    }
    ready_.notify_one();
  }

  void push(std::span<const graph::Edge> block) {
    graph::EdgeList buf;
    {
      std::unique_lock lock(mu_);
      space_.wait(lock, [this] {
        return queue_.size() < kReadAheadBlocks || stopped_;
      });
      if (stopped_) throw Stopped{};
      if (!free_.empty()) {
        buf = std::move(free_.back());
        free_.pop_back();
      }
    }
    buf.assign(block.begin(), block.end());
    {
      const std::lock_guard lock(mu_);
      queue_.push_back(std::move(buf));
    }
    ready_.notify_one();
  }

  std::mutex mu_;
  std::condition_variable ready_;  ///< a block is queued, or done_ is set
  std::condition_variable space_;  ///< a queue slot freed, or stopped_ set
  std::deque<graph::EdgeList> queue_;  ///< decoded, not yet returned
  std::vector<graph::EdgeList> free_;  ///< returned buffers for reuse
  bool stopped_ = false;               ///< the caller has stopped reading
  bool done_ = false;                  ///< the helper has finished
  std::exception_ptr error_;           ///< why the helper finished early
  graph::EdgeList held_;  ///< the caller's current block (caller only)
  std::thread helper_;    // last: it starts after the members it uses
};

}  // namespace

ShardedGraphView::ShardedGraphView(std::string dir,
                                   std::uint64_t memory_budget_bytes)
    : dir_(std::move(dir)),
      budget_(memory_budget_bytes),
      manifest_(load_manifest(dir_)) {
  if (budget_ > 0) {
    const std::uint64_t working_set =
        std::max(static_cast<std::uint64_t>(manifest_.num_shards) *
                     per_shard_stream_bytes(),
                 merged_stream_bytes());
    PAGEN_CHECK_MSG(
        working_set <= budget_,
        "memory budget " << budget_ << " cannot hold the stream working set ("
                         << working_set << " bytes: one block per shard for "
                         << manifest_.num_shards << " shards, or the merged "
                         << "stream's read-ahead, of "
                         << manifest_.block_edges
                         << "-edge blocks); raise the budget or rebuild the "
                            "store with smaller blocks");
  }
}

std::uint64_t ShardedGraphView::per_shard_stream_bytes() const {
  const auto block = static_cast<std::uint64_t>(manifest_.block_edges);
  return block * sizeof(graph::Edge) + block * kMaxBytesPerEdge + 4096;
}

std::uint64_t ShardedGraphView::merged_stream_bytes() const {
  const auto block = static_cast<std::uint64_t>(manifest_.block_edges);
  return per_shard_stream_bytes() +
         (kReadAheadBlocks + 1) * block * sizeof(graph::Edge);
}

void ShardedGraphView::verify() const {
  for (int r = 0; r < manifest_.num_shards; ++r) {
    stream_shard(dir_, manifest_, r, {});
  }
}

graph::EdgeSource ShardedGraphView::edge_source() const {
  graph::EdgeSource source;
  source.num_nodes = manifest_.num_nodes;
  source.num_shards = manifest_.num_shards;
  source.num_edges = manifest_.total_edges();
  source.visit_shard = [dir = dir_, manifest = manifest_](
                           int shard, const graph::EdgeVisitor& visit) {
    stream_shard(dir, manifest, shard, visit);
  };
  return source;
}

graph::EdgeSource ShardedGraphView::merged_edge_source() const {
  graph::EdgeSource source;
  source.num_nodes = manifest_.num_nodes;
  source.num_shards = 1;
  source.num_edges = manifest_.total_edges();
  source.visit_shard = [dir = dir_, manifest = manifest_](
                           int shard, const graph::EdgeVisitor& visit) {
    PAGEN_CHECK_MSG(shard == 0, "merged source has exactly one shard");
    ReadAhead ahead(dir, manifest);
    while (const graph::EdgeList* block = ahead.next()) visit(*block);
  };
  return source;
}

graph::EdgeList ShardedGraphView::load_shard(int rank) const {
  PAGEN_CHECK_MSG(rank >= 0 && rank < manifest_.num_shards,
                  "shard " << rank << " out of range");
  graph::EdgeList all;
  all.reserve(manifest_.shards[static_cast<std::size_t>(rank)].edges);
  stream_shard(dir_, manifest_, rank, [&all](std::span<const graph::Edge> b) {
    all.insert(all.end(), b.begin(), b.end());
  });
  return all;
}

graph::EdgeList ShardedGraphView::load_all() const {
  graph::EdgeList all;
  all.reserve(manifest_.total_edges());
  for (int r = 0; r < manifest_.num_shards; ++r) {
    stream_shard(dir_, manifest_, r, [&all](std::span<const graph::Edge> b) {
      all.insert(all.end(), b.begin(), b.end());
    });
  }
  return all;
}

}  // namespace pagen::store
