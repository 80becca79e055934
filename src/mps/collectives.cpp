#include "mps/collectives.h"

#include <memory>

#include "util/error.h"

namespace pagen::mps {

CollectiveContext::CollectiveContext(int nranks)
    : nranks_(nranks), slots_(static_cast<std::size_t>(nranks)) {
  PAGEN_CHECK(nranks >= 1);
}

std::vector<std::vector<std::byte>> CollectiveContext::exchange(
    Rank rank, std::vector<std::byte> in,
    const std::function<void()>& service, std::chrono::milliseconds tick) {
  PAGEN_CHECK(rank >= 0 && rank < nranks_);
  std::shared_ptr<const Blobs> round;
  {
    std::unique_lock lock(mutex_);
    if (poisoned_) throw WorldAborted();
    slots_[static_cast<std::size_t>(rank)] = std::move(in);
    const std::uint64_t my_generation = generation_;
    const auto round_over = [&] {
      return generation_ != my_generation || poisoned_;
    };
    if (++arrived_ == nranks_) {
      // Last arriver publishes the round and opens the next one. A round
      // cannot complete without this rank, so `published_` still holds
      // this round when every waiter of it wakes.
      published_ = std::make_shared<const Blobs>(std::move(slots_));
      slots_.assign(static_cast<std::size_t>(nranks_), {});
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else if (!service) {
      cv_.wait(lock, round_over);
    } else {
      while (!cv_.wait_for(lock, tick, round_over)) {
        // Round not complete yet: run the service hook unlocked so it can
        // touch mailboxes and peers without holding up other ranks'
        // arrivals.
        lock.unlock();
        service();
        lock.lock();
      }
    }
    if (generation_ == my_generation && poisoned_) throw WorldAborted();
    round = published_;
  }
  // The copy runs outside the lock: the shared round stays alive until its
  // last reader drops it, however many rounds later that is.
  return *round;
}

void CollectiveContext::poison() {
  {
    std::lock_guard lock(mutex_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

}  // namespace pagen::mps
