// svc layer 3 — the result cache: repeat requests never regenerate.
//
// pagen-lint: no-wallclock — eviction is LRU over a virtual access
// counter, never over timestamps (docs/serving.md).
//
// Two serving tiers, both keyed by the canonical spec_hash, each the only
// judge of what it serves (docs/serving.md §3):
//
//  * ResultCache — an in-memory LRU of JobOutputs. Externally synchronized
//    (the Server's mutex); recency is a virtual access counter, so eviction
//    order is a deterministic function of the access history, not of
//    wall-clock. It serves a request only what its sink needs.
//
//  * Store probe — a spec whose store_dir already holds a compressed store
//    (src/store/) *produced by the same spec* is served from disk without
//    regeneration, surviving process restarts. Provenance is a marker file
//    recording the producing spec hash and the manifest's seal next to the
//    manifest; the manifest alone (num_nodes + counts) could not tell two
//    seeds apart. A matching probe returns the output, reading each shard
//    once.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "svc/job.h"

namespace pagen::svc {

class ResultCache {
 public:
  /// @param max_entries LRU bound; 0 disables the cache (lookup always
  ///   misses, insert is a no-op) for ablation runs.
  explicit ResultCache(std::size_t max_entries);

  /// The output for `key` if it serves a request with `sink`: any entry
  /// serves kCount, one holding edges (or a graph without any) serves
  /// kGather, none serves kCompressedStore — the probe, which checks the
  /// store on disk, is that sink's cache. A serve counts a hit and bumps
  /// recency; anything else counts a miss and returns null.
  [[nodiscard]] std::shared_ptr<const JobOutput> lookup(std::uint64_t key,
                                                        Sink sink);

  /// Insert (or refresh) `key` as the most recent entry; on a refresh the
  /// newer value wins unless it would drop the edges the old one holds.
  /// Evicts the least-recently-used entry when the bound is exceeded.
  void insert(std::uint64_t key, std::shared_ptr<const JobOutput> value);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  [[nodiscard]] Count hits() const { return hits_; }
  [[nodiscard]] Count misses() const { return misses_; }
  [[nodiscard]] Count evictions() const { return evictions_; }

  /// Mirror hit/miss/eviction tallies into obs counters (all may be null).
  void bind_metrics(obs::Counter* hits, obs::Counter* misses,
                    obs::Counter* evictions);

 private:
  struct Entry {
    std::shared_ptr<const JobOutput> value;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  std::size_t max_entries_;
  std::list<std::uint64_t> lru_;  ///< front = most recent
  std::map<std::uint64_t, Entry> entries_;
  Count hits_ = 0;
  Count misses_ = 0;
  Count evictions_ = 0;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
};

/// Path of the spec-hash marker a completed kCompressedStore job writes
/// next to the manifest.
[[nodiscard]] std::string store_marker_path(const std::string& dir);

/// Record that `dir`'s compressed store was produced by a spec hashing to
/// `hash`. Written after the shards and manifest, so a marker implies a
/// complete store. The marker is one line: tag `pagen.svc.store.v4`, the
/// spec hash and the manifest's seal, which pins every shard's header
/// chain, so a later probe detects on-disk corruption instead of serving
/// poison. Reads only the manifest, never a shard. Throws CheckError when
/// `dir` holds no store.
void write_store_marker(const std::string& dir, std::uint64_t hash);

/// Outcome of probing `dir` for a store serving `spec` (docs/robustness.md
/// §6). Exactly one of three shapes: a verified match; a plain miss (no
/// marker, a marker of an older layout, or a different spec's store); or
/// *corrupt* — the marker claims this spec but the content fails
/// verification. Corrupt stores must be quarantined, never served.
struct StoreProbe {
  bool match = false;
  bool corrupt = false;
  std::string detail;  ///< human-readable reason when corrupt
  /// Non-null exactly on a match: what a fresh run of `spec` outputs.
  std::shared_ptr<const JobOutput> output;
};

/// Verify-on-read probe. A marker with another tag or spec hash is a
/// miss. Otherwise the probe opens the store (checking the manifest's
/// seal), compares that seal with the marker's and n and the edge count
/// with the spec, and only then reads each shard once: kGather decodes
/// them in rank order (ShardedGraphView::load_all, whose checks are the
/// verification), every other sink runs the verify pass. The first
/// CheckError is the corrupt verdict and its detail. Never throws.
[[nodiscard]] StoreProbe probe_store(const std::string& dir,
                                     const JobSpec& spec);

/// True when `dir` holds a complete, verified store produced by `spec`
/// (probe_store(...).match).
[[nodiscard]] bool store_matches(const std::string& dir, const JobSpec& spec);

/// Quarantine a corrupt artifact: atomically rename `path` to
/// `path + ".quarantined"` (clobbering any previous quarantine) so later
/// probes miss instead of re-reading poison, while the bytes stay on disk
/// for post-mortem. Returns false when the rename fails (e.g. the file
/// vanished); never throws.
bool quarantine_file(const std::string& path);

/// Quarantine a corrupt store: rename its marker aside (the marker is the
/// store's validity seal, so the directory reads as a plain miss and the
/// next run regenerates in place). Returns false when no marker existed.
bool quarantine_store(const std::string& dir);

}  // namespace pagen::svc
