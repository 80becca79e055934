#include "bench_util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "baseline/pa_draws.h"
#include "rng/splitmix.h"
#include "store/graph_view.h"
#include "util/rss.h"

#ifndef PAGEN_BENCH_COMMIT
#define PAGEN_BENCH_COMMIT "unknown"
#endif
#ifndef PAGEN_BENCH_BUILD_TYPE
#define PAGEN_BENCH_BUILD_TYPE "unknown"
#endif

namespace pagen::bench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

const char* stat_name(Stat s) {
  switch (s) {
    case Stat::kMin:
      return "min";
    case Stat::kMax:
      return "max";
    case Stat::kMedian:
      break;
  }
  return "median";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(data, n=4), method="exclusive".
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void EdgeDigest::add(const graph::Edge& e) {
  const std::uint64_t h = rng::splitmix64_mix(rng::splitmix64_mix(e.u) ^
                                              (e.v + 0x9e3779b97f4a7c15ULL));
  ++count;
  sum += h;
  xr ^= rng::splitmix64_mix(h);
}

EdgeDigest digest_store(const std::string& dir) {
  const graph::EdgeSource src = store::ShardedGraphView(dir).edge_source();
  EdgeDigest d;
  for (int s = 0; s < src.num_shards; ++s) {
    src.visit_shard(s, [&d](std::span<const graph::Edge> b) { d.add(b); });
  }
  return d;
}

std::int64_t span_ns(const obs::Tracer& track, const char* name) {
  std::int64_t total = 0;
  for (const obs::TraceEvent& e : track.events()) {
    if (e.kind == obs::EventKind::kSpan && std::strcmp(e.name, name) == 0) {
      total += e.dur_ns;
    }
  }
  return total;
}

std::vector<double> rank_span_seconds(const obs::Session& s, const char* name) {
  std::vector<double> out;
  for (int r = 0; r < s.nranks(); ++r) {
    out.push_back(static_cast<double>(span_ns(s.rank(r).trace(), name)) * 1e-9);
  }
  return out;
}

Count dropped_events(const obs::Session& s) {
  Count dropped = s.driver().trace().dropped();
  for (int r = 0; r < s.nranks(); ++r) dropped += s.rank(r).trace().dropped();
  return dropped;
}

double draw_ns(const PaConfig& config) {
  constexpr std::size_t kCoords = std::size_t{1} << 20;
  const DrawSchema draws(config);
  // pick_k draws from [1, t-1] (x = 1) or [x, t-1], so t starts above that.
  const NodeId lo = config.x + 1;
  std::vector<NodeId> ts(kCoords);
  for (std::size_t i = 0; i < kCoords; ++i) {
    const std::uint64_t h =
        rng::splitmix64_mix(config.seed ^ (i * 0x9e3779b97f4a7c15ULL));
    ts[i] = lo + h % (config.n - lo);
  }
  std::uint64_t acc = 0;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < kCoords; ++i) {
    const NodeId e = i % config.x;
    acc += draws.pick_k(ts[i], e, 0);
    acc += draws.pick_direct(ts[i], e, 0) ? 1 : 0;
    if (config.x > 1) acc += draws.pick_l(ts[i], e, 0);
  }
  const auto elapsed = static_cast<double>(now_ns() - start);
  // Publish the draws so the loop cannot be optimized away.
  static std::atomic<std::uint64_t> sink{0};
  sink.store(acc, std::memory_order_relaxed);
  const double per_coord = config.x > 1 ? 3.0 : 2.0;
  return elapsed / (static_cast<double>(kCoords) * per_coord);
}

void trim_heap() { malloc_trim(0); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

bool reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5";
  os.close();
  return static_cast<bool>(os);
}

int nproc() {
  return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

Report::Report(const Args& args) : args_(args) {}

void Report::param(const std::string& key, double value) {
  params_.emplace_back(key, json_number(value));
}

void Report::param(const std::string& key, const std::string& value) {
  params_.emplace_back(key, json_string(value));
}

void Report::metric(const std::string& name, const std::string& unit,
                    const std::vector<double>& samples, Stat stat) {
  check(!samples.empty(), "metric " + name + " has no samples");
  for (const double v : samples) {
    check(std::isfinite(v), "metric " + name + " is not finite");
  }
  Metric m{unit, stat, 0.0, summarize(samples), samples};
  if (!samples.empty()) {
    const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
    m.value = stat == Stat::kMin   ? *lo
              : stat == Stat::kMax ? *hi
                                   : m.summary.median;
  }
  metrics_[name] = std::move(m);
}

void Report::metric(const std::string& name, const std::string& unit,
                    double value) {
  metric(name, unit, std::vector<double>{value});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (problems_.size() < 32) problems_.push_back(what);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok && problems_.size() < 32) problems_.push_back(what);
}

void Report::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"pagen.bench.v1\",\n"
     << "  \"workload\": " << json_string(args_.workload) << ",\n"
     << "  \"trace\": " << (args_.trace ? "true" : "false") << ",\n"
     << "  \"provenance\": {\"commit\": " << json_string(PAGEN_BENCH_COMMIT)
     << ", \"build_type\": " << json_string(PAGEN_BENCH_BUILD_TYPE)
     << ", \"nproc\": " << nproc() << ", \"seed\": " << args_.seed
     << ", \"seconds\": " << json_number(args_.seconds)
     << ", \"smoke\": " << (args_.smoke ? "true" : "false") << "},\n"
     << "  \"params\": {";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(params_[i].first) << ": "
       << params_[i].second;
  }
  os << "},\n  \"correct\": " << (correct() ? "true" : "false")
     << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
     << ",\n  \"problems\": [";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(problems_[i]);
  }
  os << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "\n" : ",\n") << "    " << json_string(name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << ", \"stat\": "
       << json_string(stat_name(m.stat))
       << ", \"median\": " << json_number(m.summary.median)
       << ", \"q1\": " << json_number(m.summary.q1)
       << ", \"q3\": " << json_number(m.summary.q3)
       << ", \"n\": " << m.summary.n << ", \"samples\": [";
    for (std::size_t i = 0; i < m.samples.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_number(m.samples[i]);
    }
    os << "]}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void Report::print(std::ostream& os) const {
  os << "workload " << args_.workload << (args_.trace ? " (traced)" : "")
     << ": " << (correct() ? "correct" : "INCORRECT") << ", " << attempted_
     << " attempted, " << failed_ << " failed\n";
  for (const std::string& p : problems_) os << "  problem: " << p << "\n";
  for (const auto& [name, m] : metrics_) {
    os << "  " << std::left << std::setw(36) << name << std::right
       << std::setw(18) << std::setprecision(6) << m.value << " " << m.unit
       << "  (" << stat_name(m.stat) << " of n=" << m.summary.n << ")\n";
  }
}

}  // namespace pagen::bench
