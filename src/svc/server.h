// svc layer 4 — the Server facade: generation as a service.
//
// One Server = one admission gate + one bounded priority JobQueue + one
// WorkerPool draining it through core::generate + one ResultCache serving
// repeats. The public surface is submit / poll / cancel / wait / shutdown;
// everything scheduling-relevant is wall-clock free (virtual admission
// ticks, priority + FIFO ordering, LRU by access counter), so the decision
// trace is a deterministic function of the call history. Wall-clock is
// *measured* (job latency histogram) but never consulted. A job's record,
// output included, lives from its accept until wait() returns it
// (docs/serving.md §4).
//
// Concurrency model: one mutex guards all server state (queue, records,
// cache, metrics registry); workers hold it only to transition job states,
// never while generating. Each running job spawns its spec's rank threads
// via mps::run_ranks, exactly like a direct generate() call. Cancellation
// is cooperative: cancel() flips the job's flag, every rank of the running
// job polls it through ParallelOptions::cancel_requested and unwinds
// through the mps abort path — the worker survives and takes the next job
// (docs/serving.md §4).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mps/fault.h"
#include "obs/metrics.h"
#include "svc/cache.h"
#include "svc/flight.h"
#include "svc/job.h"
#include "svc/queue.h"
#include "svc/retry.h"

namespace pagen::svc {

struct ServerOptions {
  /// Concurrent generation jobs (each additionally spawns its spec's rank
  /// threads while running).
  int workers = 4;

  /// Bounded queue depth: the admission-control valve. Submits beyond it
  /// are shed or rejected with Reject::kQueueFull — the client's
  /// backpressure signal — never buffered.
  std::size_t queue_capacity = 64;

  /// Result-cache LRU bound (entries). 0 disables caching.
  std::size_t cache_entries = 32;

  /// Start with dispatch paused: jobs are admitted and queued but no
  /// worker pops until resume(). Makes admission-order tests and staged
  /// load patterns deterministic.
  bool start_paused = false;

  // --- Fault tolerance (docs/robustness.md §6) ---

  /// Root directory for per-job checkpoint directories
  /// (`<root>/job-<id>`). Empty disables job checkpointing: a retried
  /// attempt then regenerates from scratch (still correct, just slower).
  std::string checkpoint_root{};

  /// Resolutions between checkpoint writes per rank (per-job runs use a
  /// tighter cadence than the standalone default so short jobs leave
  /// resumable progress behind).
  Count checkpoint_every = 1024;

  /// Per-spec circuit breaker: after `breaker_threshold` consecutive
  /// terminal failures of a spec, submits of it fast-fail
  /// (Reject::kCircuitOpen) until `breaker_cooldown` admission ticks pass;
  /// then one probationary attempt half-opens it. 0 disables the breaker.
  std::uint32_t breaker_threshold = 0;
  std::uint64_t breaker_cooldown = 16;

  /// Service-scope chaos plan (mps::FaultPlan jobfail= / storecorrupt= /
  /// ckptcorrupt= keys; transport-scope keys are ignored here — put those
  /// in JobSpec::fault_plan). Every decision is a pure function of
  /// (plan seed, job id, attempt), so a chaos run replays from its seed.
  mps::FaultPlan chaos{};
};

/// Point-in-time tallies (a locked snapshot of the obs instruments).
struct ServerStats {
  Count submits = 0;    ///< all submit() calls, accepted or not
  Count accepted = 0;   ///< admitted jobs (queued or cache-served)
  Count rejected = 0;   ///< admission rejects, all reasons
  Count completed = 0;  ///< terminal kCompleted (including cache-served)
  Count cancelled = 0;
  Count expired = 0;
  Count failed = 0;   ///< terminal kFailed (all attempts exhausted)
  Count shed = 0;     ///< queued jobs evicted for higher-priority arrivals
  Count retries = 0;  ///< failed attempts re-queued with backoff
  Count resumed = 0;  ///< retry attempts that restored checkpoint progress
  Count circuit_open_rejects = 0;  ///< submits fast-failed by the breaker
  Count quarantined_stores = 0;    ///< corrupt stores quarantined
  Count quarantined_checkpoints = 0;  ///< corrupt checkpoint files quarantined
  Count cache_hits = 0;        ///< memory-cache lookups that served
  Count cache_store_hits = 0;  ///< store serves, each also a cache miss
  Count cache_misses = 0;      ///< memory-cache lookups that did not
  std::size_t queue_depth = 0;
  int running = 0;
};

class Server {
 public:
  struct Submitted {
    JobId id = kNoJob;           ///< kNoJob exactly when rejected
    Reject reject = Reject::kNone;
    bool from_cache = false;     ///< completed instantly from cache/store
    /// Overload hint on kQueueFull / kCircuitOpen rejects: how many
    /// admission ticks the client should wait before resubmitting.
    std::uint64_t retry_after = 0;
  };

  explicit Server(ServerOptions options);
  ~Server();  ///< cancel-everything shutdown if none was requested

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admission: validate, check the deadline against the admission tick,
  /// try the result cache and the store probe, then queue. Rejects
  /// carry a reason and leave no record (retry later). A cache/store hit
  /// returns an already-completed job.
  Submitted submit(const JobSpec& spec);

  /// Snapshot of a job's state. The id must have been issued by submit()
  /// and not yet released by wait(); poll never releases.
  [[nodiscard]] JobStatus poll(JobId id) const;

  /// Cancel a job: a queued job terminates kCancelled immediately; a
  /// running job gets its cooperative flag set and terminates kCancelled
  /// once its ranks drain (the worker survives). False when the job is
  /// already terminal. The id must not be released; cancel never releases.
  bool cancel(JobId id);

  /// Block until the job is terminal, then release its record and return
  /// the final status, as waitpid reaps a child: the server keeps no
  /// reference to the output (the result cache may), and a later poll,
  /// cancel or wait of the id throws CheckError, like an id never issued.
  /// Of several threads waiting on one id, one gets the status and the
  /// others throw.
  JobStatus wait(JobId id);

  /// Open the dispatch gate of a start_paused server (idempotent).
  void resume();

  /// Stop the server. drain = true: stop admitting, finish every queued
  /// and running job, then join the workers. drain = false: cancel every
  /// queued job, flag every running job for cooperative cancellation, and
  /// join once they drain. Idempotent; the destructor calls
  /// shutdown(false) if neither was requested.
  void shutdown(bool drain);

  [[nodiscard]] ServerStats stats() const;

  /// Deterministic obs-metrics JSON of the service instruments
  /// (svc.queue_depth, svc.cache_hits, svc.job_latency_ns, ...).
  void write_metrics(std::ostream& os) const;

  /// Prometheus text exposition of the same instruments (obs/prom.h
  /// mapping: svc.job_latency_ns -> pagen_svc_job_latency_ns with
  /// cumulative buckets and _p50/_p95/_p99 gauges). Scrape-ready.
  void write_prometheus(std::ostream& os) const;

  /// Recent incident lines, oldest first: each cancelled / expired / failed
  /// job contributes its rendered flight-recorder ring, each admission
  /// reject a one-liner. Bounded retention (kMaxIncidents) — a live
  /// service's last-N post-mortems, not an unbounded log.
  [[nodiscard]] std::vector<std::string> incidents() const;

  /// The current admission tick (accepted-job count): the clock that
  /// JobSpec::deadline is measured against.
  [[nodiscard]] std::uint64_t tick() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  struct Record {
    JobSpec spec;
    std::uint64_t hash = 0;
    std::uint64_t seq = 0;  ///< admission tick at accept (queue tie-break)
    std::int64_t submit_ns = 0;
    std::int64_t dispatch_ns = 0;  ///< worker pop time (0 = never dispatched)
    JobState state = JobState::kQueued;
    bool from_cache = false;
    std::uint32_t attempts = 0;  ///< worker runs consumed (bumped under mu_)
    bool resumed = false;  ///< some attempt restored checkpoint progress
    std::string error;
    std::shared_ptr<const JobOutput> output;
    std::atomic<bool> cancel{false};
    FlightRecorder flight;  ///< per-job transition ring (noted under mu_)
  };

  static constexpr std::size_t kMaxIncidents = 16;

  /// The client's view of a record (mu_ held).
  static JobStatus status_of(const Record& rec);

  void worker_loop();
  /// Is a queue entry dispatchable at the current retry clock? Fast-forwards
  /// the clock over a pure-backoff backlog when the server is idle — virtual
  /// time is free, so an empty machine never sits out a backoff (mu_ held).
  [[nodiscard]] bool dispatchable();
  /// Run one generation attempt outside the lock; finalizes the record
  /// (complete / retry-with-backoff / fail / cancel) under the lock.
  void run_job(JobId id, const std::shared_ptr<Record>& rec);
  /// The job's per-attempt checkpoint directory ("" when disabled).
  [[nodiscard]] std::string job_checkpoint_dir(JobId id) const;
  /// Quarantine unreadable checkpoint files before a resume attempt.
  void quarantine_bad_checkpoints(JobId id, const std::string& dir,
                                  int ranks);
  /// Tally one admission reject (mu_ held).
  Submitted rejected(Reject why);
  /// Retain a bounded incident line (mu_ held).
  void push_incident(std::string line);
  /// Render `rec`'s flight ring into the incident buffer (mu_ held).
  void flight_incident(JobId id, const Record& rec, const char* why);
  /// Install an already-completed record for a cache/store serve
  /// (mu_ held).
  Submitted serve_completed(const JobSpec& spec, std::uint64_t hash,
                            std::shared_ptr<const JobOutput> output);

  ServerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue / stop / resume
  std::condition_variable done_cv_;  ///< waiters: job transitions, drain
  JobQueue queue_;
  ResultCache cache_;
  CircuitBreaker breaker_;
  /// Every accepted job until wait() releases it.
  std::map<JobId, std::shared_ptr<Record>> jobs_;
  JobId next_id_ = 1;
  std::atomic<std::uint64_t> ticks_{0};
  /// Virtual retry clock (mu_ held): advances on accepts and terminal
  /// jobs, fast-forwards over backoff gaps when the server is idle.
  /// Backoffs are measured on this clock, so retries never sleep.
  std::uint64_t retry_clock_ = 0;
  bool paused_ = false;
  bool draining_ = false;  ///< admission closed
  bool stop_ = false;      ///< workers exit when the queue is empty
  bool joined_ = false;
  int running_ = 0;

  // Obs instruments (registry and instruments mutated under mu_ only).
  obs::MetricsRegistry metrics_;
  obs::Counter* submits_;
  obs::Counter* accepted_;
  obs::Counter* rejects_all_;
  obs::Counter* rejects_queue_full_;
  obs::Counter* rejects_shutting_down_;
  obs::Counter* rejects_invalid_;
  obs::Counter* rejects_deadline_;
  obs::Counter* rejects_circuit_;
  obs::Counter* completed_;
  obs::Counter* cancelled_;
  obs::Counter* expired_;
  obs::Counter* failed_;
  obs::Counter* shed_;
  obs::Counter* retries_;
  obs::Counter* resumed_;
  obs::Counter* store_quarantined_;
  obs::Counter* ckpt_quarantined_;
  obs::Counter* store_hits_;
  obs::Gauge* queue_depth_;
  obs::Gauge* running_gauge_;
  obs::Histogram* latency_;
  obs::Histogram* queue_wait_;  ///< submit -> worker pop, ns
  obs::Histogram* run_ns_;      ///< worker pop -> terminal, ns

  std::deque<std::string> incidents_;  ///< last kMaxIncidents, oldest first
  std::vector<std::thread> workers_;
};

}  // namespace pagen::svc
