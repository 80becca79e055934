// Shared plumbing of the pagen_bench program: run arguments, sample
// statistics, the order-insensitive edge digest every oracle compares,
// readers over obs trace spans, and the "pagen.bench.v1" report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baseline/pa_config.h"
#include "graph/edge_list.h"
#include "obs/session.h"
#include "util/timer.h"
#include "util/types.h"

namespace pagen::bench {

/// One workload process's arguments (main.cpp parses them).
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< budget of the whole run: set-up, measurement
                          ///< and oracle
  bool trace = false;     ///< per-layer pass instead of the end-to-end pass
  bool smoke = false;     ///< tiny sizes: exercises every path and oracle
  std::string work_dir;   ///< scratch for stores and spill files
  std::string out_dir;    ///< where <workload>.json (and .trace.json) go
  std::int64_t start_ns = 0;  ///< now_ns() when the run began

  /// Seconds of the budget still left.
  [[nodiscard]] double remaining_s() const {
    return seconds - static_cast<double>(now_ns() - start_ns) * 1e-9;
  }
};

/// Median and quartiles, computed like Python's statistics.quantiles(n=4)
/// (the "exclusive" method) so compare.py reads the same numbers.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Order-insensitive digest of an edge multiset: the edge count plus the
/// wrapping sum and the xor of a 64-bit mix of each edge. Two runs that
/// emit the same edges in any order, on any rank, produce equal digests.
struct EdgeDigest {
  Count count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;

  void add(const graph::Edge& e);
  void add(std::span<const graph::Edge> edges) {
    for (const graph::Edge& e : edges) add(e);
  }
  EdgeDigest& operator+=(const EdgeDigest& o) {
    count += o.count;
    sum += o.sum;
    xr ^= o.xr;
    return *this;
  }
  friend bool operator==(const EdgeDigest&, const EdgeDigest&) = default;
};

/// Digest of every edge of the compressed store in `dir`, read and
/// verified through store::ShardedGraphView.
[[nodiscard]] EdgeDigest digest_store(const std::string& dir);

/// Per-rank accumulator a bench-owned sink writes from its rank's thread.
/// Padded to a cache line so rank threads do not share one.
struct alignas(64) RankTally {
  Count edges = 0;
  std::int64_t sink_ns = 0;
  EdgeDigest digest;
};

/// Total duration (ns) of the spans named `name` on one track.
[[nodiscard]] std::int64_t span_ns(const obs::Tracer& track, const char* name);

/// Per-rank totals of one span name across a session's rank tracks.
[[nodiscard]] std::vector<double> rank_span_seconds(const obs::Session& s,
                                                    const char* name);

/// Events any track of the session overwrote (the ring was too small).
[[nodiscard]] Count dropped_events(const obs::Session& s);

/// Call `pass`, which returns the seconds it took, `min_passes` times, then
/// again while one more call as long as the longest so far would still
/// leave `reserve_s` of the run's budget (for the oracle). At least
/// `min_passes` calls happen even when they overrun the budget.
template <class Pass>
void repeat_within(const Args& args, double reserve_s, int min_passes,
                   Pass&& pass) {
  double longest = 0.0;
  for (int i = 0; i < min_passes || args.remaining_s() - longest > reserve_s;
       ++i) {
    longest = std::max(longest, static_cast<double>(pass()));
  }
}

/// Nanoseconds per draw of the counter-based RNG over a sample of the
/// workload's own DrawSchema coordinates (t, e, attempt 0): the rng layer
/// in isolation, single-threaded.
[[nodiscard]] double draw_ns(const PaConfig& config);

/// Return the heap's free memory to the system (glibc malloc_trim), so the
/// peak RSS of each operation starts from the same place instead of from
/// whatever fragmentation earlier operations left in the rank threads'
/// arenas. Called between operations, outside every timed region.
void trim_heap();

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double cpu_seconds();

/// Peak resident set (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

/// Reset VmHWM to the current resident set (Linux /proc/self/clear_refs),
/// so the next peak_rss_mb() is the peak of what ran in between. A run's
/// peak_rss_mb is the median of its timed operations' peaks: the maximum
/// over a run would grow with the number of operations on workloads whose
/// memory use varies from one operation to the next (mps queues).
/// Returns false when the kernel refuses the reset.
bool reset_peak_rss();

/// Logical CPUs the benchmark may use.
[[nodiscard]] int nproc();

/// Which statistic of its samples a metric reports as its value.
///
/// The end-to-end time and memory metrics report the best operation of
/// the run (kMin or kMax): a shared host only ever adds delay and queueing
/// to an operation, so across runs of the same code the best operation
/// spreads about half as much as the median one (README.md, "Statistics
/// and bounds"). Everything else reports the median.
enum class Stat { kMedian, kMin, kMax };

/// The workload report: parameters, per-iteration samples, metrics, and
/// the operation tally. Written as "pagen.bench.v1" JSON.
class Report {
 public:
  explicit Report(const Args& args);

  void param(const std::string& key, double value);
  void param(const std::string& key, const std::string& value);

  /// A metric whose value is `stat` of its samples; the median, quartiles
  /// and raw samples are kept in the report as well.
  void metric(const std::string& name, const std::string& unit,
              const std::vector<double>& samples, Stat stat = Stat::kMedian);
  /// A metric with a single measured value.
  void metric(const std::string& name, const std::string& unit, double value);

  /// One attempted operation (a generation, a pipeline pass, a job); it
  /// counts as failed unless `ok`, and `what` names the failed check.
  void op(bool ok, const std::string& what);

  /// A run-level check that is not an operation (ledger, dropped events).
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const {
    return failed_ == 0 && problems_.empty();
  }
  [[nodiscard]] Count attempted() const { return attempted_; }
  [[nodiscard]] Count failed() const { return failed_; }

  void write_json(std::ostream& os) const;
  void print(std::ostream& os) const;

 private:
  struct Metric {
    std::string unit;
    Stat stat = Stat::kMedian;
    double value = 0.0;
    Summary summary;
    std::vector<double> samples;
  };

  Args args_;
  std::vector<std::pair<std::string, std::string>> params_;  // key -> JSON
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> problems_;
  Count attempted_ = 0;
  Count failed_ = 0;
};

// The workloads, one translation unit each. Every workload runs untimed
// warm-up operations (setup_s), then timed operations until its budget
// (args.seconds, oracle included) runs out, checks every operation against
// an oracle computed outside the timed regions, and fills `report`. With
// args.trace it reports per-layer metrics instead of end-to-end ones.
void run_pipeline_x1(const Args& args, Report& report);
void run_commfree_x6(const Args& args, Report& report);
void run_mps_x6(const Args& args, Report& report);
void run_svc_mixed(const Args& args, Report& report);

}  // namespace pagen::bench
