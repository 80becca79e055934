// svc-mixed: generation as a service under a closed-loop client mix.
//
// Why this workload: it is the only read-heavy, latency-facing use of the
// store and the svc layer. Four client threads each loop submit -> wait
// against one svc::Server (2 workers, queue 64, 8 cache entries); every job
// is commfree, x = 1, n = 2e5, 2 ranks, in passes of 600 jobs. Every pass
// holds exactly this mix, in an order drawn from the seed:
//   30% hot gathers over 4 seeds: the memory result cache serves them;
//   45% cold gathers, each with a seed of its own: full generation through
//       commfree's in-RAM memo (the path pipeline-x1 bypasses);
//   25% over 16 store seeds: 40% kCompressedStore writes, 60% kGather
//       with store_dir, which the server serves by probe + block decode.
// About a third of the jobs are served from a cache, so the median job
// latency sits inside the generation mode of the latency distribution
// rather than on the edge between the cache-hit and generation modes,
// where it would jump between them from run to run. Each store seed
// belongs to one client, so no two writes of one store race. Every pass
// gets a fresh server and store directory. 600 jobs leave 30 beyond the
// p95 latency.
//
// One operation = one job. Oracle (after the measurement): every gather
// equals its direct core::generate() golden, or copy_model_targets for
// cold seeds; every sealed store decodes to its golden. Each client
// digests a result when it arrives (order-insensitive, ~1 ns per edge) and
// keeps only the digest.
#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/copy_model_seq.h"
#include "bench_util.h"
#include "core/generate.h"
#include "rng/splitmix.h"
#include "svc/server.h"

namespace pagen::bench {
namespace {

constexpr NodeId kJobNodes = 200'000;
constexpr NodeId kSmokeJobNodes = 2'000;
constexpr int kJobRanks = 2;
constexpr int kWorkers = 2;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kCacheEntries = 8;
constexpr int kClients = 4;
constexpr int kHotSeeds = 4;
constexpr int kStoreSeeds = 16;
constexpr int kPassJobs = 600;
constexpr int kSmokePassJobs = 60;
constexpr int kWarmupJobs = 100;
constexpr int kSetups = 3;
constexpr int kMinPasses = 2;
constexpr int kTracedPasses = 3;
/// Seconds of the budget kept for the oracle (~1000 cold goldens on four
/// cores and 20 direct ones take ~2 s at full size).
constexpr double kOracleReserveS = 2.5;

enum class Kind { kHot, kCold, kStoreWrite, kStoreGather };

struct Planned {
  Kind kind = Kind::kHot;
  std::uint64_t seed = 0;
  int store = -1;  ///< store seed index for the store kinds
};

/// How the submit was answered (traced passes only).
enum class Outcome { kHit, kStoreServe, kQueued };

/// What one job produced; checked against the oracle after the run.
struct Done {
  Planned job;
  bool completed = false;
  Count edges = 0;
  EdgeDigest digest;  ///< gathers only
  double latency_ms = 0.0;
  double submit_ms = 0.0;
  Outcome outcome = Outcome::kQueued;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return rng::splitmix64_mix(a ^
                             rng::splitmix64_mix(b + 0x9e3779b97f4a7c15ULL));
}

std::uint64_t hot_seed(std::uint64_t seed, int i) {
  return mix(mix(seed, 0x686f74), static_cast<std::uint64_t>(i));
}

std::uint64_t cold_seed(std::uint64_t seed, int pass, int job) {
  return mix(mix(mix(seed, 0x636f6c64), static_cast<std::uint64_t>(pass)),
             static_cast<std::uint64_t>(job));
}

std::uint64_t store_seed(std::uint64_t seed, int s) {
  return mix(mix(seed, 0x73746f7265), static_cast<std::uint64_t>(s));
}

/// Every client's job list for one pass, a pure function of (seed, pass):
/// the mix's exact counts in a seeded order, dealt round-robin.
std::vector<std::vector<Planned>> plan_pass(std::uint64_t seed, int pass,
                                            int jobs) {
  const int hot = jobs * 30 / 100;
  const int cold = jobs * 45 / 100;
  const int store = jobs - hot - cold;
  const int writes = store * 40 / 100;
  std::vector<Kind> kinds;
  kinds.insert(kinds.end(), static_cast<std::size_t>(hot), Kind::kHot);
  kinds.insert(kinds.end(), static_cast<std::size_t>(cold), Kind::kCold);
  kinds.insert(kinds.end(), static_cast<std::size_t>(writes),
               Kind::kStoreWrite);
  kinds.insert(kinds.end(), static_cast<std::size_t>(store - writes),
               Kind::kStoreGather);
  const std::uint64_t base = mix(seed, static_cast<std::uint64_t>(pass));
  for (std::size_t i = kinds.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(kinds[i - 1], kinds[mix(base, i) % i]);
  }

  std::vector<std::vector<Planned>> plans(kClients);
  for (int k = 0; k < jobs; ++k) {
    const int client = k % kClients;
    const std::uint64_t v = mix(base ^ 0x6a6f62, static_cast<std::uint64_t>(k));
    Planned p;
    p.kind = kinds[static_cast<std::size_t>(k)];
    switch (p.kind) {
      case Kind::kHot:
        p.seed = hot_seed(seed, static_cast<int>(v % kHotSeeds));
        break;
      case Kind::kCold:
        p.seed = cold_seed(seed, pass, k);
        break;
      case Kind::kStoreWrite:
      case Kind::kStoreGather:
        // This client's own store seeds: s ≡ client (mod kClients).
        p.store = client +
                  kClients * static_cast<int>(v % (kStoreSeeds / kClients));
        p.seed = store_seed(seed, p.store);
        break;
    }
    plans[static_cast<std::size_t>(client)].push_back(p);
  }
  return plans;
}

PaConfig job_config(std::uint64_t seed, NodeId n) {
  PaConfig cfg;
  cfg.n = n;
  cfg.x = 1;
  cfg.p = 0.5;
  cfg.seed = seed;
  return cfg;
}

std::string pass_dir(const Args& args, int pass) {
  return args.work_dir + "/svc-mixed/pass-" + std::to_string(pass);
}

std::string store_dir(const std::string& pass, int s) {
  return pass + "/store-" + std::to_string(s);
}

svc::JobSpec make_spec(const Planned& p, NodeId n, const std::string& pass) {
  svc::JobSpec spec;
  spec.config = job_config(p.seed, n);
  spec.engine = "commfree";
  spec.ranks = kJobRanks;
  spec.scheme = partition::Scheme::kRrp;
  spec.sink = p.kind == Kind::kStoreWrite ? svc::Sink::kCompressedStore
                                          : svc::Sink::kGather;
  if (p.store >= 0) spec.store_dir = store_dir(pass, p.store);
  return spec;
}

/// Server-side instruments of one pass, read from its Prometheus export.
struct ServerView {
  svc::ServerStats stats;
  std::map<std::string, double> prom;
};

ServerView read_server(const svc::Server& server) {
  ServerView v;
  v.stats = server.stats();
  std::ostringstream os;
  server.write_prometheus(os);
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    v.prom[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return v;
}

struct PassResult {
  int pass = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time over the pass
  double peak_mb = 0.0;  ///< peak resident set over the pass
  bool peak_reset = false;
  std::vector<Done> jobs;
  ServerView server;
  std::vector<int> sealed_stores;  ///< store seeds written this pass
};

/// One pass: a fresh server and store directory, kClients closed-loop
/// clients. `traced` serializes submits behind a bench lock so the server
/// stats around each one tell a cache hit from a store serve.
PassResult run_pass(const Args& args, NodeId n, int pass, int jobs,
                    bool traced) {
  const std::string dir = pass_dir(args, pass);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<std::vector<Planned>> plans =
      plan_pass(args.seed, pass, jobs);

  PassResult out;
  out.pass = pass;
  std::vector<std::vector<Done>> done(kClients);
  std::mutex submit_mu;
  {
    svc::ServerOptions so;
    so.workers = kWorkers;
    so.queue_capacity = kQueueCapacity;
    so.cache_entries = kCacheEntries;
    out.peak_reset = reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const Timer wall;
    svc::Server server(so);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (const Planned& p : plans[static_cast<std::size_t>(c)]) {
          const svc::JobSpec spec = make_spec(p, n, dir);
          Done d;
          d.job = p;
          try {
            const std::int64_t start = now_ns();
            svc::Server::Submitted sub;
            if (traced) {
              const std::lock_guard lock(submit_mu);
              const svc::ServerStats before = server.stats();
              const std::int64_t s0 = now_ns();
              sub = server.submit(spec);
              d.submit_ms = static_cast<double>(now_ns() - s0) * 1e-6;
              const svc::ServerStats after = server.stats();
              d.outcome =
                  after.cache_store_hits > before.cache_store_hits
                      ? Outcome::kStoreServe
                  : after.cache_hits > before.cache_hits ? Outcome::kHit
                                                         : Outcome::kQueued;
            } else {
              sub = server.submit(spec);
            }
            if (sub.id != svc::kNoJob) {
              const svc::JobStatus st = server.wait(sub.id);
              d.latency_ms = static_cast<double>(now_ns() - start) * 1e-6;
              d.completed = st.state == svc::JobState::kCompleted;
              if (d.completed) {
                d.edges = st.output->total_edges;
                if (spec.sink == svc::Sink::kGather) {
                  d.digest.add(st.output->edges);
                }
              }
            }
          } catch (const std::exception&) {
            d.completed = false;  // counted as a failed job by the oracle
          }
          done[static_cast<std::size_t>(c)].push_back(d);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    out.wall_s = wall.seconds();
    out.cpu_s = cpu_seconds() - cpu0;
    out.peak_mb = peak_rss_mb();
    out.server = read_server(server);
    server.shutdown(true);
  }
  // The server held every output of the pass until it was destroyed.
  trim_heap();
  for (auto& d : done) {
    for (const Done& j : d) {
      if (j.job.kind == Kind::kStoreWrite && j.completed &&
          std::find(out.sealed_stores.begin(), out.sealed_stores.end(),
                    j.job.store) == out.sealed_stores.end()) {
        out.sealed_stores.push_back(j.job.store);
      }
    }
    out.jobs.insert(out.jobs.end(), d.begin(), d.end());
  }
  return out;
}

/// Golden digests: direct core::generate() with the options a server
/// worker derives from the spec, or copy_model_targets for cold seeds.
class Goldens {
 public:
  explicit Goldens(NodeId n) : n_(n) {}

  const EdgeDigest& direct(std::uint64_t seed) {
    const auto it = book_.find(seed);
    if (it != book_.end()) return it->second;
    core::ParallelOptions opt;
    opt.engine = "commfree";
    opt.ranks = kJobRanks;
    opt.scheme = partition::Scheme::kRrp;
    EdgeDigest d;
    d.add(core::generate(job_config(seed, n_), opt).edges);
    return book_.emplace(seed, d).first->second;
  }

  /// The copy_model_targets goldens of `seeds`, computed on every core: a
  /// run's cold jobs need ~1000 of them.
  void add_sequential(const std::vector<std::uint64_t>& seeds) {
    std::vector<EdgeDigest> out(seeds.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nproc()));
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < errors.size(); ++w) {
      workers.emplace_back([&, w] {
        try {
          for (std::size_t i = next++; i < seeds.size(); i = next++) {
            const std::vector<NodeId> f =
                baseline::copy_model_targets(job_config(seeds[i], n_));
            for (NodeId t = 1; t < n_; ++t) out[i].add(graph::Edge{t, f[t]});
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    for (std::size_t i = 0; i < seeds.size(); ++i) cold_[seeds[i]] = out[i];
  }

  /// A golden add_sequential() computed.
  [[nodiscard]] const EdgeDigest& sequential(std::uint64_t seed) const {
    return cold_.at(seed);
  }

 private:
  NodeId n_;
  std::map<std::uint64_t, EdgeDigest> book_;
  std::map<std::uint64_t, EdgeDigest> cold_;
};

std::vector<double> latencies(const PassResult& p) {
  std::vector<double> v;
  for (const Done& d : p.jobs) {
    if (d.completed) v.push_back(d.latency_ms);
  }
  return v;
}

double edges_per_s(const PassResult& p) {
  double edges = 0.0;
  for (const Done& d : p.jobs) edges += static_cast<double>(d.edges);
  return edges / p.wall_s;
}

}  // namespace

void run_svc_mixed(const Args& args, Report& report) {
  const NodeId n = args.smoke ? kSmokeJobNodes : kJobNodes;
  const int pass_jobs = args.smoke ? kSmokePassJobs : kPassJobs;
  report.param("engine", "commfree");
  report.param("job_n", static_cast<double>(n));
  report.param("job_x", 1.0);
  report.param("job_ranks", kJobRanks);
  report.param("workers", kWorkers);
  report.param("queue_capacity", static_cast<double>(kQueueCapacity));
  report.param("cache_entries", static_cast<double>(kCacheEntries));
  report.param("clients", kClients);
  report.param("pass_jobs", pass_jobs);
  report.param("warmup_jobs", kWarmupJobs);
  report.param("setups", kSetups);
  report.param("min_timed_passes", args.trace ? kTracedPasses : kMinPasses);
  report.param("mix",
               "30% hot (4 seeds), 45% cold (a seed each), 25% store "
               "(16 seeds: 40% write, 60% gather)");

  // Set-up: warm-up passes, each on a fresh server.
  std::vector<PassResult> passes;
  int pass_no = 0;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    passes.push_back(run_pass(args, n, pass_no++, kWarmupJobs, false));
    setup_s.push_back(passes.back().wall_s);
  }

  std::vector<double> eps, jobs_ps, p50, p95, p99, peak_mb;
  double busy_cpu_s = 0.0;
  double busy_wall_s = 0.0;
  const auto measure = [&] {
    passes.push_back(run_pass(args, n, pass_no++, pass_jobs, false));
    const PassResult& p = passes.back();
    busy_cpu_s += p.cpu_s;
    busy_wall_s += p.wall_s;
    const std::vector<double> lat = latencies(p);
    eps.push_back(edges_per_s(p));
    jobs_ps.push_back(static_cast<double>(lat.size()) / p.wall_s);
    p50.push_back(percentile(lat, 0.50));
    p95.push_back(percentile(lat, 0.95));
    p99.push_back(percentile(lat, 0.99));
    peak_mb.push_back(p.peak_mb);
    report.check(p.peak_reset, "cannot reset the peak resident set");
    return p.wall_s;
  };

  if (!args.trace) {
    repeat_within(args, kOracleReserveS, kMinPasses, measure);
    report.metric("edges_per_s", "1/s", eps, Stat::kMax);
    // The lowest of the timed passes' median job latencies.
    report.metric("latency_ms", "ms", p50, Stat::kMin);
    report.metric("peak_rss_mb", "MB", peak_mb, Stat::kMin);
    report.metric("setup_s", "s", setup_s);
    report.metric("jobs_per_s", "1/s", jobs_ps);
    report.metric("latency_p95_ms", "ms", p95);
  } else {
    // One untraced pass for the client-side latency tail and the CPU
    // utilization, then traced passes whose serialized submits tell how
    // each submit was answered.
    measure();
    std::map<Outcome, std::vector<double>> submit;
    std::vector<double> qw50, qw95, run50, run95, hit_ratio, store_hits,
        rejects;
    repeat_within(args, kOracleReserveS, kTracedPasses, [&] {
      passes.push_back(run_pass(args, n, pass_no++, pass_jobs, true));
      const PassResult& p = passes.back();
      for (const Done& d : p.jobs) submit[d.outcome].push_back(d.submit_ms);
      const auto& prom = p.server.prom;
      const auto ms = [&prom](const std::string& key) {
        const auto it = prom.find(key);
        return it == prom.end() ? 0.0 : it->second * 1e-6;
      };
      qw50.push_back(ms("pagen_svc_queue_wait_ns_p50"));
      qw95.push_back(ms("pagen_svc_queue_wait_ns_p95"));
      run50.push_back(ms("pagen_svc_run_ns_p50"));
      run95.push_back(ms("pagen_svc_run_ns_p95"));
      const svc::ServerStats& s = p.server.stats;
      const Count lookups = std::max<Count>(s.cache_hits + s.cache_misses, 1);
      hit_ratio.push_back(static_cast<double>(s.cache_hits) /
                          static_cast<double>(lookups));
      store_hits.push_back(static_cast<double>(s.cache_store_hits));
      rejects.push_back(static_cast<double>(s.rejected));
      return p.wall_s;
    });
    const std::vector<std::pair<Outcome, std::string>> outcomes = {
        {Outcome::kHit, "hit"}, {Outcome::kStoreServe, "store"},
        {Outcome::kQueued, "queued"}};
    for (const auto& [o, name] : outcomes) {
      const std::vector<double>& v = submit[o];
      report.metric("svc.submit_ms_p50_" + name, "ms", percentile(v, 0.50));
      report.metric("svc.submit_ms_p95_" + name, "ms", percentile(v, 0.95));
    }
    report.metric("rng.draw_ns", "ns", draw_ns(job_config(args.seed, n)));
    report.metric("svc.queue_wait_ms_p50", "ms", qw50);
    report.metric("svc.queue_wait_ms_p95", "ms", qw95);
    report.metric("svc.run_ms_p50", "ms", run50);
    report.metric("svc.run_ms_p95", "ms", run95);
    report.metric("svc.cache_hit_ratio", "ratio", hit_ratio);
    report.metric("svc.store_hits", "count", store_hits);
    report.metric("svc.rejects", "count", rejects);
    report.metric("svc.latency_p95_ms", "ms", p95);
    report.metric("svc.latency_p99_ms", "ms", p99);
    report.metric("process.cpu_utilization", "ratio",
                  busy_cpu_s / (busy_wall_s * nproc()));
    // svc::Server takes no obs::Session, so no pass here is traced: the
    // bench's per-submit lock changes latencies but adds no tracing.
    report.metric("tracing_overhead", "ratio", 0.0);
  }

  // The oracle, after every timed region.
  Goldens goldens(n);
  std::vector<std::uint64_t> cold;
  for (const PassResult& p : passes) {
    for (const Done& d : p.jobs) {
      if (d.job.kind == Kind::kCold) cold.push_back(d.job.seed);
    }
  }
  goldens.add_sequential(cold);
  const Count expected = n - 1;
  for (const PassResult& p : passes) {
    for (const Done& d : p.jobs) {
      bool ok = d.completed && d.edges == expected;
      if (ok && d.job.kind != Kind::kStoreWrite) {
        ok = d.digest == (d.job.kind == Kind::kCold
                              ? goldens.sequential(d.job.seed)
                              : goldens.direct(d.job.seed));
      }
      report.op(ok, "job output differs from its golden (or the job failed)");
    }
    for (const int s : p.sealed_stores) {
      const std::string dir = store_dir(pass_dir(args, p.pass), s);
      report.check(
          digest_store(dir) == goldens.direct(store_seed(args.seed, s)),
          "a sealed store differs from its golden");
    }
  }
  std::filesystem::remove_all(args.work_dir + "/svc-mixed");
}

}  // namespace pagen::bench
