// ExternalArray: a file-backed array with a bounded in-RAM page cache.
//
// The external-memory spill primitive for the commfree engine's x > 1 row
// table. Its access pattern has no locality to exploit: pick_k draws a
// copy source uniformly from the prefix, so every copy slot reads a random
// row, and a cache holding a fraction f of the table misses about 1 - f of
// those reads. Allendorf et al. (arXiv:2211.06884) make PA I/O-efficient
// by sorting requests and scanning the data instead (ROADMAP item 3,
// "x > 1 past RAM").
//
// Elements live in fixed-size pages; a small LRU cache of pages stays in
// RAM under a caller-set byte budget, dirty pages write back on eviction,
// and pages never written read as the fill value — so a sparse table over
// a huge index space costs only the pages actually touched (the backing
// file stays sparse on Linux). Access is get/set by index; eviction order
// is a pure function of the access sequence (no wall-clock anywhere).
//
// Single-threaded by design: each generator rank owns its private array,
// matching the paper's independent-file-I/O execution model.
#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/error.h"
#include "util/types.h"

namespace pagen::store {

template <typename T>
class ExternalArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "pages round-trip through raw file I/O");

 public:
  /// Backs indices [0, size) by `path` (created/truncated). `fill` is the
  /// value of any element never set. `budget_bytes` bounds the in-RAM page
  /// cache (at least one page is always kept).
  ExternalArray(const std::string& path, std::uint64_t size, T fill,
                std::uint64_t budget_bytes)
      : file_(path, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc),
        path_(path),
        size_(size),
        fill_(fill),
        max_pages_(budget_bytes / kPageBytes > 0 ? budget_bytes / kPageBytes
                                                 : 1),
        on_disk_((size + kPageElems - 1) / kPageElems, false) {
    PAGEN_CHECK_MSG(file_.is_open(), "cannot open spill file " << path);
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  [[nodiscard]] T get(std::uint64_t i) {
    PAGEN_CHECK_MSG(i < size_, "spill index " << i << " out of range");
    return page(i / kPageElems).data[i % kPageElems];
  }

  void set(std::uint64_t i, const T& value) {
    PAGEN_CHECK_MSG(i < size_, "spill index " << i << " out of range");
    Page& p = page(i / kPageElems);
    p.data[i % kPageElems] = value;
    p.dirty = true;
  }

  /// Cache misses served from disk or the fill value (spill telemetry).
  [[nodiscard]] Count page_faults() const { return faults_; }
  /// Dirty pages written back on eviction.
  [[nodiscard]] Count pages_spilled() const { return spilled_; }
  [[nodiscard]] std::uint64_t cached_pages() const { return pages_.size(); }

 private:
  static constexpr std::uint64_t kPageElems = 4096;
  static constexpr std::uint64_t kPageBytes = kPageElems * sizeof(T);

  struct Page {
    std::uint64_t index = 0;
    std::vector<T> data;
    bool dirty = false;
  };

  Page& page(std::uint64_t index) {
    const auto it = table_.find(index);
    if (it != table_.end()) {
      // Move to the LRU front.
      pages_.splice(pages_.begin(), pages_, it->second);
      return *pages_.begin();
    }
    ++faults_;
    if (pages_.size() >= max_pages_) evict();
    pages_.emplace_front();
    Page& p = pages_.front();
    p.index = index;
    p.data.assign(kPageElems, fill_);
    if (on_disk_[index]) {
      file_.clear();
      file_.seekg(static_cast<std::streamoff>(index * kPageBytes));
      file_.read(reinterpret_cast<char*>(p.data.data()),
                 static_cast<std::streamsize>(kPageBytes));
      PAGEN_CHECK_MSG(file_.good(), "spill read failed for " << path_);
    }
    table_.emplace(index, pages_.begin());
    return p;
  }

  void evict() {
    Page& victim = pages_.back();
    if (victim.dirty) {
      file_.clear();
      file_.seekp(static_cast<std::streamoff>(victim.index * kPageBytes));
      file_.write(reinterpret_cast<const char*>(victim.data.data()),
                  static_cast<std::streamsize>(kPageBytes));
      PAGEN_CHECK_MSG(file_.good(), "spill write failed for " << path_);
      on_disk_[victim.index] = true;
      ++spilled_;
    }
    table_.erase(victim.index);
    pages_.pop_back();
  }

  std::fstream file_;
  std::string path_;
  std::uint64_t size_;
  T fill_;
  std::uint64_t max_pages_;
  std::vector<bool> on_disk_;  ///< page ever written back
  std::list<Page> pages_;      ///< front = most recently used
  std::unordered_map<std::uint64_t, typename std::list<Page>::iterator> table_;
  Count faults_ = 0;
  Count spilled_ = 0;
};

}  // namespace pagen::store
