#include "svc/server.h"

#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/engine/engine.h"
#include "core/generate.h"
#include "obs/prom.h"
#include "store/edge_writer.h"
#include "util/bytes_file.h"
#include "util/error.h"
#include "util/timer.h"

namespace pagen::svc {

Server::Server(ServerOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_entries),
      breaker_(options.breaker_threshold, options.breaker_cooldown),
      paused_(options.start_paused),
      submits_(&metrics_.counter("svc.submits")),
      accepted_(&metrics_.counter("svc.accepted")),
      rejects_all_(&metrics_.counter("svc.rejects")),
      rejects_queue_full_(&metrics_.counter("svc.rejects_queue_full")),
      rejects_shutting_down_(&metrics_.counter("svc.rejects_shutting_down")),
      rejects_invalid_(&metrics_.counter("svc.rejects_invalid_spec")),
      rejects_deadline_(&metrics_.counter("svc.rejects_deadline_expired")),
      rejects_circuit_(&metrics_.counter("svc.rejects_circuit_open")),
      completed_(&metrics_.counter("svc.completed")),
      cancelled_(&metrics_.counter("svc.cancelled")),
      expired_(&metrics_.counter("svc.expired")),
      failed_(&metrics_.counter("svc.failed")),
      shed_(&metrics_.counter("svc.shed")),
      retries_(&metrics_.counter("svc.retries")),
      resumed_(&metrics_.counter("svc.resumed")),
      store_quarantined_(&metrics_.counter("svc.store_quarantined")),
      ckpt_quarantined_(&metrics_.counter("svc.ckpt_quarantined")),
      store_hits_(&metrics_.counter("svc.cache_store_hits")),
      queue_depth_(&metrics_.gauge("svc.queue_depth")),
      running_gauge_(&metrics_.gauge("svc.running")),
      latency_(&metrics_.histogram("svc.job_latency_ns")),
      queue_wait_(&metrics_.histogram("svc.queue_wait_ns")),
      run_ns_(&metrics_.histogram("svc.run_ns")) {
  PAGEN_CHECK_MSG(options.workers >= 1, "server needs workers >= 1");
  cache_.bind_metrics(&metrics_.counter("svc.cache_hits"),
                      &metrics_.counter("svc.cache_misses"),
                      &metrics_.counter("svc.cache_evictions"));
  workers_.reserve(static_cast<std::size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(false); }

namespace {

const char* reject_name(Reject why) {
  switch (why) {
    case Reject::kQueueFull:
      return "queue_full";
    case Reject::kShuttingDown:
      return "shutting_down";
    case Reject::kInvalidSpec:
      return "invalid_spec";
    case Reject::kDeadlineExpired:
      return "deadline_expired";
    case Reject::kCircuitOpen:
      return "circuit_open";
    case Reject::kNone:
      break;
  }
  return "none";
}

// Chaos decision salts (FaultPlan::svc_roll): one domain per fault kind so
// the three decisions of one (job, attempt) are independent.
constexpr std::uint64_t kSaltJobfail = 0x6a6f626661696cULL;    // "jobfail"
constexpr std::uint64_t kSaltStoreCorrupt = 0x73746f7265ULL;   // "store"
constexpr std::uint64_t kSaltCkptCorrupt = 0x636b7074ULL;      // "ckpt"

/// Deterministically flip one byte in the middle of `path` (the chaos
/// corruption primitive). No-op when the file is missing or empty.
void flip_byte_in_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!try_load_bytes(path, bytes) || bytes.empty()) return;
  bytes[bytes.size() / 2] ^= 0x01U;
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) return;
  os.write(  // pagen-lint: allow(store-format) — chaos corrupts raw bytes
      reinterpret_cast<const char*>(bytes.data()),
      static_cast<std::streamsize>(bytes.size()));
}

/// Like flip_byte_in_file, but a missing/empty target gets a torn garbage
/// file planted instead — the write-interrupted-at-crash failure mode. The
/// rank's checkpoint schedule depends on thread interleaving, so a corrupt
/// checkpoint chaos decision must not silently no-op just because that
/// rank had not checkpointed yet; either way the verify-on-read pass sees
/// an unreadable file and quarantines it.
void rot_checkpoint_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (try_load_bytes(path, bytes) && !bytes.empty()) {
    flip_byte_in_file(path);
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) return;
  const char torn[] = "pagnckp2 torn write";
  os.write(torn, sizeof(torn) - 1);  // pagen-lint: allow(store-format)
}

}  // namespace

void Server::push_incident(std::string line) {
  incidents_.push_back(std::move(line));
  while (incidents_.size() > kMaxIncidents) incidents_.pop_front();
}

void Server::flight_incident(JobId id, const Record& rec, const char* why) {
  std::ostringstream os;
  os << "job " << id << " " << why << ": " << rec.flight.dump();
  push_incident(os.str());
}

Server::Submitted Server::rejected(Reject why) {
  rejects_all_->add();
  switch (why) {
    case Reject::kQueueFull:
      rejects_queue_full_->add();
      break;
    case Reject::kShuttingDown:
      rejects_shutting_down_->add();
      break;
    case Reject::kInvalidSpec:
      rejects_invalid_->add();
      break;
    case Reject::kDeadlineExpired:
      rejects_deadline_->add();
      break;
    case Reject::kCircuitOpen:
      rejects_circuit_->add();
      break;
    case Reject::kNone:
      break;
  }
  std::ostringstream os;
  os << "submit rejected: " << reject_name(why) << " (tick "
     << ticks_.load(std::memory_order_relaxed) << ", queue depth "
     << queue_.size() << ")";
  push_incident(os.str());
  return Submitted{kNoJob, why, false};
}

Server::Submitted Server::serve_completed(
    const JobSpec& spec, std::uint64_t hash,
    std::shared_ptr<const JobOutput> output) {
  const JobId id = next_id_++;
  auto rec = std::make_shared<Record>();
  rec->spec = spec;
  rec->hash = hash;
  rec->seq = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec->submit_ns = now_ns();
  rec->state = JobState::kCompleted;
  rec->from_cache = true;
  rec->output = std::move(output);
  rec->flight.note("cache_serve");
  jobs_.emplace(id, std::move(rec));
  accepted_->add();
  completed_->add();
  done_cv_.notify_all();
  return Submitted{id, Reject::kNone, true};
}

Server::Submitted Server::submit(const JobSpec& spec) {
  std::lock_guard lk(mu_);
  submits_->add();
  if (draining_) return rejected(Reject::kShuttingDown);
  if (!validate(spec).empty()) return rejected(Reject::kInvalidSpec);
  // The job would be accepted at tick() + 1; a deadline already at or
  // behind the current tick can never be met (docs/serving.md §2).
  if (spec.deadline != 0 &&
      ticks_.load(std::memory_order_relaxed) >= spec.deadline) {
    return rejected(Reject::kDeadlineExpired);
  }

  const std::uint64_t hash = spec_hash(spec);

  // Tier 1: the memory cache, which serves only what the sink needs.
  if (auto cached = cache_.lookup(hash, spec.sink)) {
    return serve_completed(spec, hash, std::move(cached));
  }

  // Tier 2: a store this very spec produced, verify-on-read. A match is
  // served as the probe read it; a *corrupt* store (the marker claims this
  // spec but the content disagrees) is quarantined and the job regenerates
  // — poison is never served. Any other defect is a plain miss.
  if (!spec.store_dir.empty()) {
    StoreProbe probe = probe_store(spec.store_dir, spec);
    if (probe.match) {
      store_hits_->add();
      cache_.insert(hash, probe.output);
      return serve_completed(spec, hash, std::move(probe.output));
    }
    if (probe.corrupt) {
      quarantine_store(spec.store_dir);
      store_quarantined_->add();
      std::ostringstream os;
      os << "store " << spec.store_dir << " quarantined: " << probe.detail;
      push_incident(os.str());
    }
  }

  // The per-spec circuit breaker: a spec that failed its last k jobs
  // fast-fails instead of burning worker time on a known-bad workload.
  if (!breaker_.allow(hash, ticks_.load(std::memory_order_relaxed))) {
    Submitted s = rejected(Reject::kCircuitOpen);
    s.retry_after = options_.breaker_cooldown;
    return s;
  }

  // Overload ladder (docs/robustness.md §6): at capacity, first try to
  // shed the least important queued job — strictly lower priority only, so
  // load never sheds equals — and admit the newcomer in its place; only
  // when everyone queued is at least as important does the submit get a
  // kQueueFull reject, with a retry-after hint in admission ticks.
  if (queue_.full()) {
    const JobId victim = queue_.shed_below(spec.priority);
    if (victim == kNoJob) {
      Submitted s = rejected(Reject::kQueueFull);
      s.retry_after = queue_.size();
      return s;
    }
    Record& v = *jobs_.at(victim);
    v.state = JobState::kShed;
    v.flight.note("shed", static_cast<std::int64_t>(spec.priority));
    flight_incident(victim, v, "shed for higher-priority arrival");
    shed_->add();
    done_cv_.notify_all();
  }

  const JobId id = next_id_++;
  auto rec = std::make_shared<Record>();
  rec->spec = spec;
  rec->hash = hash;
  rec->seq = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  rec->submit_ns = now_ns();
  const bool pushed = queue_.push(id, spec.priority, rec->seq);
  PAGEN_CHECK_MSG(pushed, "queue rejected a push below capacity");
  rec->flight.note("queued", static_cast<std::int64_t>(queue_.size()));
  jobs_.emplace(id, std::move(rec));
  queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
  accepted_->add();
  ++retry_clock_;  // accepts advance the virtual retry clock
  work_cv_.notify_one();
  return Submitted{id, Reject::kNone, false};
}

bool Server::dispatchable() {
  if (queue_.empty()) return false;
  if (queue_.peek(retry_clock_) != kNoJob) return true;
  if (running_ == 0) {
    // Every queued entry is in retry backoff and nothing is running:
    // fast-forward the virtual clock to the earliest eligible tick.
    // Virtual time costs nothing, so an idle server never waits out a
    // backoff on wall clock — backoff only orders retries relative to
    // competing work.
    const std::uint64_t ready = queue_.earliest_ready();
    if (ready > retry_clock_ && ready != JobQueue::kAnyTick) {
      retry_clock_ = ready;
    }
    return queue_.peek(retry_clock_) != kNoJob;
  }
  return false;
}

void Server::worker_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || (!paused_ && dispatchable()); });
    if (stop_ && queue_.empty()) return;
    const JobId id = queue_.pop(retry_clock_);
    if (id == kNoJob) continue;  // raced with another worker or a cancel
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    const std::shared_ptr<Record> rec = jobs_.at(id);
    rec->dispatch_ns = now_ns();
    rec->flight.note("dispatched", static_cast<std::int64_t>(queue_.size()));
    queue_wait_->observe(
        static_cast<std::uint64_t>(rec->dispatch_ns - rec->submit_ns));

    // Dispatch-time gates: a cancel that raced the pop, then the virtual
    // deadline — both terminal without ever spinning up ranks.
    if (rec->cancel.load(std::memory_order_relaxed)) {
      rec->state = JobState::kCancelled;
      rec->flight.note("cancelled");
      flight_incident(id, *rec, "cancelled at dispatch");
      cancelled_->add();
      done_cv_.notify_all();
      continue;
    }
    if (rec->spec.deadline != 0 &&
        ticks_.load(std::memory_order_relaxed) > rec->spec.deadline) {
      rec->state = JobState::kExpired;
      rec->flight.note("expired",
                       static_cast<std::int64_t>(rec->spec.deadline));
      flight_incident(id, *rec, "expired");
      expired_->add();
      done_cv_.notify_all();
      continue;
    }

    rec->state = JobState::kRunning;
    ++rec->attempts;
    rec->flight.note("running", rec->attempts);
    ++running_;
    running_gauge_->set(running_);
    lk.unlock();
    run_job(id, rec);
    lk.lock();
    --running_;
    running_gauge_->set(running_);
    done_cv_.notify_all();
    // Idle workers re-evaluate the fast-forward rule now that running_
    // dropped (a pure-backoff backlog may have become dispatchable).
    work_cv_.notify_all();
  }
}

std::string Server::job_checkpoint_dir(JobId id) const {
  if (options_.checkpoint_root.empty()) return {};
  return options_.checkpoint_root + "/job-" + std::to_string(id);
}

void Server::quarantine_bad_checkpoints(JobId id, const std::string& dir,
                                        int ranks) {
  for (int r = 0; r < ranks; ++r) {
    core::RankCheckpoint ck;
    try {
      (void)core::load_checkpoint(dir, r, ck);
    } catch (const CheckError& e) {
      const std::string path = core::checkpoint_path(dir, r);
      quarantine_file(path);
      std::lock_guard lk(mu_);
      ckpt_quarantined_->add();
      std::ostringstream os;
      os << "job " << id << " checkpoint rank " << r
         << " quarantined: " << e.what();
      push_incident(os.str());
      // That rank cold-starts its slice; the others still resume.
    }
  }
}

void Server::run_job(JobId id, const std::shared_ptr<Record>& rec) {
  const JobSpec& spec = rec->spec;  // immutable once admitted
  const std::uint32_t attempt = rec->attempts;  // bumped at dispatch
  core::ParallelOptions opt = job_options(spec);  // validated at submit
  opt.cancel_requested = [rec] {
    return rec->cancel.load(std::memory_order_relaxed);
  };

  // Per-job checkpointing: attempt 1 starts clean (job ids recycle across
  // server lifetimes, so a stale directory must never alias); retries
  // resume from whatever the failed attempts checkpointed, after
  // quarantining any file that no longer verifies (a corrupt checkpoint
  // degrades that rank to a cold start, never to restored garbage).
  // Capability gating: an engine without checkpoint support would reject a
  // wired checkpoint_dir at generate(), so its jobs degrade gracefully —
  // every retry attempt regenerates from scratch (spec.engine was validated
  // at submit, so the lookup cannot miss).
  // kCompressedStore additionally opts out: generate() rejects store_dir +
  // resume (restored edges would re-enter the store), so its retries are
  // cold starts by design.
  const core::Engine* engine = core::EngineRegistry::instance().find(spec.engine);
  const bool can_checkpoint = engine != nullptr &&
                              engine->capabilities().checkpointing &&
                              spec.sink != Sink::kCompressedStore;
  const std::string ckpt_dir =
      can_checkpoint ? job_checkpoint_dir(id) : std::string{};
  if (!ckpt_dir.empty()) {
    if (attempt == 1) {
      std::error_code ec;
      std::filesystem::remove_all(ckpt_dir, ec);
    } else {
      quarantine_bad_checkpoints(id, ckpt_dir, spec.ranks);
    }
    opt.checkpoint_dir = ckpt_dir;
    opt.checkpoint_every = options_.checkpoint_every;
    opt.resume = attempt > 1;
  }

  // Service-scope chaos: a jobfail decision for this (job, attempt) plants
  // a sink that throws once half the edges have streamed through it — the
  // "sink I/O error" failure mode. Edges arrive in per-rank batches, so on
  // small jobs the throw lands at the ranks' final flushes; either way it
  // comes after the checkpoints the retry resumes from. Pure in (chaos
  // seed, id, attempt): replayable, schedule-free.
  const mps::FaultPlan& chaos = options_.chaos;
  if (chaos.jobfail > 0.0 && attempt <= chaos.jobfail_attempts &&
      chaos.svc_roll(kSaltJobfail, id, attempt) < chaos.jobfail) {
    const Count limit = expected_edge_count(spec.config) / 2 + 1;
    auto emitted = std::make_shared<std::atomic<Count>>(0);
    opt.edge_batch_sink = [emitted, limit](Rank,
                                           std::span<const graph::Edge> es) {
      const Count seen =
          emitted->fetch_add(es.size(), std::memory_order_relaxed) + es.size();
      if (seen >= limit) throw CheckError("injected jobfail: sink failure");
    };
  }

  JobState final_state = JobState::kCompleted;
  Count restored = 0;
  std::string error;
  std::shared_ptr<JobOutput> out;
  try {
    core::ParallelResult result = core::generate(spec.config, opt);
    restored = result.restored_slots;
    out = std::make_shared<JobOutput>();
    out->edges = std::move(result.edges);
    out->targets = std::move(result.targets);
    out->total_edges = result.total_edges;
    if (spec.sink == Sink::kCompressedStore) {
      // generate() already streamed the edges into the store and sealed
      // its manifest; the marker seals provenance.
      write_store_marker(spec.store_dir, rec->hash);
      out->store_dir = spec.store_dir;
      if (chaos.storecorrupt > 0.0 &&
          chaos.svc_roll(kSaltStoreCorrupt, id, attempt) <
              chaos.storecorrupt) {
        // Rot a shard *after* the marker sealed the store: the next probe
        // must catch the mismatch and quarantine instead of serving it.
        flip_byte_in_file(store::shard_path(
            spec.store_dir, static_cast<int>(id % static_cast<JobId>(
                                                      spec.ranks))));
      }
    }
  } catch (const core::Cancelled&) {
    final_state = JobState::kCancelled;
  } catch (const std::exception& e) {
    final_state = JobState::kFailed;
    error = e.what();
  }

  if (final_state == JobState::kFailed && !ckpt_dir.empty() &&
      chaos.ckptcorrupt > 0.0 &&
      chaos.svc_roll(kSaltCkptCorrupt, id, attempt) < chaos.ckptcorrupt) {
    // Rot one checkpoint between the failed attempt and its retry: the
    // pre-resume integrity pass must quarantine it.
    rot_checkpoint_file(core::checkpoint_path(
        ckpt_dir,
        static_cast<Rank>(id % static_cast<JobId>(spec.ranks))));
  }

  std::unique_lock lk(mu_);
  const std::int64_t end_ns = now_ns();
  rec->error = std::move(error);
  run_ns_->observe(static_cast<std::uint64_t>(end_ns - rec->dispatch_ns));
  if (restored > 0 && attempt > 1) {
    rec->resumed = true;
    rec->flight.note("resumed", static_cast<std::int64_t>(restored));
    resumed_->add();
  }

  // A failed attempt with budget left is not terminal: record it, requeue
  // with deterministic capped-exponential backoff on the virtual retry
  // clock, and let a worker re-dispatch (resuming from the checkpoints).
  // A cancel observed during the attempt wins over the retry.
  if (final_state == JobState::kFailed &&
      attempt < spec.max_attempts &&
      !rec->cancel.load(std::memory_order_relaxed) && !stop_) {
    const std::uint64_t delay = backoff_ticks(attempt);
    rec->state = JobState::kQueued;
    rec->flight.note("attempt_failed", attempt);
    rec->flight.note("retry_backoff", static_cast<std::int64_t>(delay));
    retries_->add();
    const bool pushed = queue_.push(id, spec.priority, rec->seq,
                                    retry_clock_ + delay, /*force=*/true);
    PAGEN_CHECK_MSG(pushed, "retry requeue failed");
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    std::ostringstream os;
    os << "job " << id << " attempt " << attempt << "/" << spec.max_attempts
       << " failed (" << rec->error << "); retrying after " << delay
       << " ticks";
    push_incident(os.str());
    lk.unlock();
    work_cv_.notify_all();
    return;
  }

  rec->state = final_state;
  switch (final_state) {
    case JobState::kCompleted:
      rec->output = std::move(out);
      cache_.insert(rec->hash, rec->output);
      rec->flight.note("completed");
      completed_->add();
      breaker_.on_success(rec->hash);
      latency_->observe(static_cast<std::uint64_t>(end_ns - rec->submit_ns));
      break;
    case JobState::kCancelled:
      rec->flight.note("cancelled");
      flight_incident(id, *rec, "cancelled while running");
      cancelled_->add();
      break;
    default:
      rec->flight.note("failed", attempt);
      flight_incident(id, *rec, "failed");
      failed_->add();
      breaker_.on_failure(rec->hash, ticks_.load(std::memory_order_relaxed));
      break;
  }
  ++retry_clock_;  // terminal jobs advance the virtual retry clock
  if (!ckpt_dir.empty() && final_state != JobState::kCancelled) {
    // The job is settled; its checkpoints have no future. (A cancelled
    // job keeps them only until the id is reused — attempt 1 wipes.)
    lk.unlock();
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
    lk.lock();
  }
  done_cv_.notify_all();
}

JobStatus Server::status_of(const Record& rec) {
  JobStatus status;
  status.state = rec.state;
  status.from_cache = rec.from_cache;
  status.attempts = rec.attempts;
  status.resumed = rec.resumed;
  status.error = rec.error;
  status.output = rec.output;
  return status;
}

JobStatus Server::poll(JobId id) const {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  PAGEN_CHECK_MSG(it != jobs_.end(), "poll of unknown or released job " << id);
  return status_of(*it->second);
}

bool Server::cancel(JobId id) {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  PAGEN_CHECK_MSG(it != jobs_.end(),
                  "cancel of unknown or released job " << id);
  Record& rec = *it->second;
  if (terminal(rec.state)) return false;
  rec.cancel.store(true, std::memory_order_relaxed);
  rec.flight.note("cancel_requested");
  if (rec.state == JobState::kQueued) {
    queue_.remove(id);
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    rec.state = JobState::kCancelled;
    rec.flight.note("cancelled");
    flight_incident(id, rec, "cancelled while queued");
    cancelled_->add();
    done_cv_.notify_all();
  }
  // kRunning: the flag is set; the job's ranks observe it at their next
  // phase-boundary poll and unwind (docs/serving.md §4). If generation
  // completes before any rank polls, the job finishes kCompleted — the
  // output is valid and the cancel was simply too late.
  return true;
}

JobStatus Server::wait(JobId id) {
  std::unique_lock lk(mu_);
  const auto it = jobs_.find(id);
  PAGEN_CHECK_MSG(it != jobs_.end(), "wait on unknown or released job " << id);
  const std::shared_ptr<Record> rec = it->second;
  done_cv_.wait(lk, [&] { return terminal(rec->state); });
  // Reap: one wait() releases the record, and the output leaves with the
  // status, so a worker still finishing its loop holds none of it.
  PAGEN_CHECK_MSG(jobs_.erase(id) == 1,
                  "job " << id << " was released by another wait");
  JobStatus status = status_of(*rec);
  rec->output.reset();
  return status;
}

void Server::resume() {
  std::lock_guard lk(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

void Server::shutdown(bool drain) {
  std::unique_lock lk(mu_);
  if (draining_) {  // a shutdown is (or was) already in flight
    done_cv_.wait(lk, [&] { return joined_; });
    return;
  }
  draining_ = true;  // admission closed from here on
  paused_ = false;   // a paused queue must still drain (or be cancelled)
  if (!drain) {
    for (JobId id = queue_.pop(); id != kNoJob; id = queue_.pop()) {
      Record& rec = *jobs_.at(id);
      rec.cancel.store(true, std::memory_order_relaxed);
      rec.state = JobState::kCancelled;
      rec.flight.note("cancelled");
      flight_incident(id, rec, "cancelled at shutdown");
      cancelled_->add();
    }
    queue_depth_->set(0);
    for (auto& entry : jobs_) {
      if (entry.second->state == JobState::kRunning) {
        entry.second->cancel.store(true, std::memory_order_relaxed);
      }
    }
    done_cv_.notify_all();
  }
  work_cv_.notify_all();
  done_cv_.wait(lk, [&] { return queue_.empty() && running_ == 0; });
  stop_ = true;
  lk.unlock();
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  lk.lock();
  joined_ = true;
  done_cv_.notify_all();
}

ServerStats Server::stats() const {
  std::lock_guard lk(mu_);
  ServerStats s;
  s.submits = submits_->value();
  s.accepted = accepted_->value();
  s.rejected = rejects_all_->value();
  s.completed = completed_->value();
  s.cancelled = cancelled_->value();
  s.expired = expired_->value();
  s.failed = failed_->value();
  s.shed = shed_->value();
  s.retries = retries_->value();
  s.resumed = resumed_->value();
  s.circuit_open_rejects = rejects_circuit_->value();
  s.quarantined_stores = store_quarantined_->value();
  s.quarantined_checkpoints = ckpt_quarantined_->value();
  s.cache_hits = cache_.hits();
  s.cache_store_hits = store_hits_->value();
  s.cache_misses = cache_.misses();
  s.queue_depth = queue_.size();
  s.running = running_;
  return s;
}

void Server::write_metrics(std::ostream& os) const {
  std::lock_guard lk(mu_);
  obs::write_metrics_json(os, {&metrics_});
}

void Server::write_prometheus(std::ostream& os) const {
  std::lock_guard lk(mu_);
  obs::write_prometheus(os, metrics_);
}

std::vector<std::string> Server::incidents() const {
  std::lock_guard lk(mu_);
  return {incidents_.begin(), incidents_.end()};
}

}  // namespace pagen::svc
