#include "mps/engine.h"

#include <exception>
#include <thread>
#include <utility>

#include "mps/delivery_hook.h"
#include "obs/session.h"
#include "util/error.h"
#include "util/timer.h"

namespace pagen::mps {

void check_world_options(const WorldOptions& options) {
  PAGEN_CHECK_MSG(options.rto_base_ms > 0 &&
                      options.rto_max_ms >= options.rto_base_ms &&
                      options.rto_max_ms <= kMaxRtoMs,
                  "need 0 < rto_base_ms <= rto_max_ms <= "
                      << kMaxRtoMs << " (got " << options.rto_base_ms << ", "
                      << options.rto_max_ms << ")");
  // A hooked world is plain best-effort transport under a virtual
  // scheduler: the hook owns every delivery, so the reliable channel's
  // timers and the fault injector's decisions have nothing to attach to.
  PAGEN_CHECK_MSG(options.delivery_hook == nullptr ||
                      (!options.reliable && !options.fault_plan.active()),
                  "delivery_hook is incompatible with reliable transport "
                  "and fault plans");
}

World::World(int nranks, WorldOptions options)
    : nranks_(nranks),
      options_(std::move(options)),
      collectives_(nranks),
      invariants_(nranks) {
  PAGEN_CHECK_MSG(nranks >= 1, "world needs at least one rank");
  check_world_options(options_);
  if (options_.fault_plan.active()) {
    // Injected faults without the repair layer would just be corruption.
    options_.reliable = true;
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan, nranks);
  }
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& World::mailbox(Rank r) {
  PAGEN_CHECK(r >= 0 && r < nranks_);
  return *mailboxes_[static_cast<std::size_t>(r)];
}

void World::precheck_send(Rank src) {
  if (aborted()) throw WorldAborted();
  if (injector_ != nullptr) injector_->on_send_step(src);
}

void World::deliver(Rank dst, Envelope env, std::uint32_t attempt,
                    CommStats& sender_stats) {
  PAGEN_CHECK(dst >= 0 && dst < nranks_);
  if (injector_ == nullptr || env.tag < 0) {
    mailbox(dst).push(std::move(env));
    return;
  }
  const Rank src = env.src;
  const int tag = env.tag;
  const FaultAction action =
      injector_->decide(src, dst, tag, env.seq, attempt);
  switch (action) {
    case FaultAction::kDrop:
      injector_->count_drop();
      sender_stats.injected_drops += 1;
      // The envelope was counted in flight on send; it just evaporated.
      invariants_.on_filtered(src);
      break;
    case FaultAction::kDup:
      injector_->count_dup();
      sender_stats.injected_dups += 1;
      invariants_.on_phantom_send(src);
      mailbox(dst).push(env);
      mailbox(dst).push(std::move(env));
      break;
    case FaultAction::kHold:
      // Park the envelope; whatever the flow transmits next overtakes it.
      injector_->count_hold();
      for (Envelope& prev : injector_->swap_held(src, dst, tag,
                                                 std::move(env))) {
        mailbox(dst).push(std::move(prev));
      }
      return;
    case FaultAction::kDeliver:
      mailbox(dst).push(std::move(env));
      break;
  }
  // Any non-hold transmission (even a drop) on the flow releases a
  // previously parked envelope *behind* the current one — the reorder.
  for (Envelope& prev : injector_->take_held(src, dst, tag)) {
    mailbox(dst).push(std::move(prev));
  }
}

void World::deliver_control(Rank dst, Envelope env) {
  PAGEN_CHECK(dst >= 0 && dst < nranks_);
  if (options_.delivery_hook != nullptr) {
    // Abort wake-ups must reach ranks parked inside the hook's scheduler,
    // not a mailbox nobody is draining.
    options_.delivery_hook->park_control(dst, std::move(env));
    return;
  }
  mailbox(dst).push(std::move(env));
}

RunResult run_ranks(int nranks, WorldOptions options,
                    const std::function<void(Comm&)>& body,
                    obs::Session* obs) {
  World world(nranks, std::move(options));
  RunResult result;
  result.rank_stats.resize(static_cast<std::size_t>(nranks));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));

  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      obs::RankObserver* ob = obs != nullptr ? &obs->rank(r) : nullptr;
      DeliveryHook* hook = world.hook();
      // Under a hook the rank parks here until the virtual scheduler grants
      // it the first step — from this point on, the OS scheduler no longer
      // decides anything observable.
      if (hook != nullptr) hook->on_rank_start(r);
      Comm comm(world, r, ob);
      try {
        const auto sp = obs::span(ob, "rank");
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Unblock peers so the world tears down instead of deadlocking on
        // the failed rank: fast-fail future sends, wake collectives via
        // poisoning, and wake mailbox waiters via abort envelopes (poll
        // translates them into WorldAborted).
        world.mark_aborted();
        world.collectives().poison();
        for (int peer = 0; peer < nranks; ++peer) {
          if (peer != r) {
            world.deliver_control(peer, Envelope{r, kAbortTag, {}, 0, {}});
          }
        }
      }
      result.rank_stats[static_cast<std::size_t>(r)] = comm.stats();
      if (ob != nullptr) record_metrics(ob->metrics(), comm.stats());
      // Mark the exit only after any abort envelopes are pushed, so the
      // deadlock probe never sees "rank r can't send" while peers still
      // lack their wake-up envelope.
      world.invariants().note_rank_exit(r);
      if (hook != nullptr) hook->on_rank_exit(r);
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = timer.seconds();

  // Prefer the root-cause exception over secondary WorldAborted failures
  // that other ranks raised while tearing down.
  std::exception_ptr first;
  for (const auto& err : errors) {
    if (!err) continue;
    if (!first) first = err;
    try {
      std::rethrow_exception(err);
    } catch (const WorldAborted&) {
      // secondary
    } catch (...) {
      first = err;
      break;
    }
  }
  if (first) std::rethrow_exception(first);
  // Exception-free world: audit the sent-vs-received ledger. A message that
  // was pushed but never drained means some rank stopped polling too early
  // (debug builds only; the Release stub inlines to nothing).
  world.invariants().verify_termination();
  return result;
}

RunResult run_ranks(int nranks, const std::function<void(Comm&)>& body,
                    obs::Session* obs) {
  return run_ranks(nranks, WorldOptions{}, body, obs);
}

}  // namespace pagen::mps
