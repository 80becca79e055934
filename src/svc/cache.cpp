// pagen-lint: no-wallclock (see cache.h)
#include "svc/cache.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "core/genrt/emitter.h"
#include "store/graph_view.h"
#include "util/error.h"

namespace pagen::svc {

namespace {

/// The one marker tag a probe accepts. Older tags (v1: no content
/// checksums; v2: the retired raw sharded layout; v3: per-file checksums
/// over a v3 manifest) read as a plain miss, so such a directory is
/// regenerated under a current seal.
constexpr const char* kMarkerTag = "pagen.svc.store.v4";

/// Can `out` answer a request with `sink`? The cache's one shape rule.
bool serves(const JobOutput& out, Sink sink) {
  switch (sink) {
    case Sink::kCount:
      return true;  // only the tallies are needed; any shape has them
    case Sink::kGather:
      return !out.edges.empty() || out.total_edges == 0;
    case Sink::kCompressedStore:
      return false;  // the store probe is this sink's cache
  }
  return false;
}

}  // namespace

ResultCache::ResultCache(std::size_t max_entries) : max_entries_(max_entries) {}

std::shared_ptr<const JobOutput> ResultCache::lookup(std::uint64_t key,
                                                     Sink sink) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || !serves(*it->second.value, sink)) {
    ++misses_;
    if (misses_metric_ != nullptr) misses_metric_->add();
    return nullptr;
  }
  ++hits_;
  if (hits_metric_ != nullptr) hits_metric_->add();
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.value;
}

void ResultCache::insert(std::uint64_t key,
                         std::shared_ptr<const JobOutput> value) {
  if (max_entries_ == 0) return;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A fresh gather upgrades a count-shaped entry; a store job's output
    // never replaces a gather's.
    if (!serves(*it->second.value, Sink::kGather) ||
        serves(*value, Sink::kGather)) {
      it->second.value = std::move(value);
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  if (entries_.size() >= max_entries_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++evictions_;
    if (evictions_metric_ != nullptr) evictions_metric_->add();
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(value), lru_.begin()});
}

void ResultCache::bind_metrics(obs::Counter* hits, obs::Counter* misses,
                               obs::Counter* evictions) {
  hits_metric_ = hits;
  misses_metric_ = misses;
  evictions_metric_ = evictions;
}

std::string store_marker_path(const std::string& dir) {
  return dir + "/svc-spec";
}

void write_store_marker(const std::string& dir, std::uint64_t hash) {
  const std::uint64_t seal = store::load_manifest(dir).seal;
  std::ofstream os(store_marker_path(dir), std::ios::trunc);
  PAGEN_CHECK_MSG(os.is_open(), "cannot write store marker in " << dir);
  os << kMarkerTag << " " << std::hex << hash << " " << seal << "\n";
  PAGEN_CHECK_MSG(os.good(), "store marker write failed in " << dir);
}

StoreProbe probe_store(const std::string& dir, const JobSpec& spec) {
  StoreProbe probe;
  std::ifstream is(store_marker_path(dir));
  if (!is.is_open()) return probe;  // no marker: plain miss
  std::string tag;
  std::uint64_t recorded = 0;
  is >> tag >> std::hex >> recorded;
  if (!is || tag != kMarkerTag) return probe;
  if (recorded != spec_hash(spec)) return probe;  // another spec's store
  // The marker claims this spec: from here every defect is corruption.
  std::uint64_t seal = 0;
  const bool sealed = static_cast<bool>(is >> seal);
  try {
    const store::ShardedGraphView view(dir);
    const store::StoreManifest& manifest = view.manifest();
    PAGEN_CHECK_MSG(sealed && manifest.seal == seal,
                    "manifest seal disagrees with the store marker");
    // Before any shard is read: load_all() reserves what the spec implies.
    PAGEN_CHECK_MSG(
        manifest.num_nodes == spec.config.n &&
            manifest.total_edges() == expected_edge_count(spec.config),
        "manifest counts disagree with spec");
    auto out = std::make_shared<JobOutput>();
    out->total_edges = manifest.total_edges();
    out->store_dir = dir;
    if (spec.sink == Sink::kGather) {
      // Rank order is a fresh run's gather order, and the targets row is
      // read off the edges as a fresh run's is: the serve equals a run.
      out->edges = view.load_all();
      if (spec.config.x == 1) {
        out->targets =
            core::genrt::targets_from_edges(out->edges, spec.config.n);
      }
    } else {
      view.verify();
    }
    probe.match = true;
    probe.output = std::move(out);
  } catch (const CheckError& e) {
    probe.corrupt = true;
    probe.detail = e.what();
  }
  return probe;
}

bool store_matches(const std::string& dir, const JobSpec& spec) {
  return probe_store(dir, spec).match;
}

bool quarantine_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  return !ec;
}

bool quarantine_store(const std::string& dir) {
  return quarantine_file(store_marker_path(dir));
}

}  // namespace pagen::svc
