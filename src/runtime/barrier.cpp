#include "runtime/barrier.hpp"

#include <chrono>
#include <thread>

#include "common/spinlock.hpp"

namespace orca::rt {

namespace {

/// Flag-spin helper: bounded busy spin, then OS yields, then short sleeps.
/// The sleep tier matters on the oversubscribed configurations (32 threads
/// on one core): a pure yield loop stays live but can starve the signalling
/// thread of whole scheduling quanta, while a 50µs nap lets stragglers
/// through without the cost of a full futex rendezvous per flag.
class FlagWait {
 public:
  void pause() noexcept {
    if (waits_ < kSpinBeforeYield) {
      cpu_relax();
    } else if (waits_ < kSpinBeforeYield + kYieldBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++waits_;
  }

 private:
  static constexpr int kYieldBeforeSleep = 512;
  int waits_ = 0;
};

}  // namespace

void TreeBarrier::init(int size) {
  size_ = size;
  // A serial team never touches the tree; the next larger init resets it.
  if (size <= 1) return;
  if (nodes_.size() < static_cast<std::size_t>(size)) {
    nodes_ = std::vector<CachePadded<Node>>(static_cast<std::size_t>(size));
  } else {
    for (auto& node : nodes_) {
      node->episode = 0;
      node->arrived.store(0, std::memory_order_relaxed);
    }
  }
  release_->store(0, std::memory_order_relaxed);
}

void TreeBarrier::arrive_and_wait(int tid) {
  if (size_ <= 1) return;
  Node& self = *nodes_[static_cast<std::size_t>(tid)];
  const std::uint64_t gen = ++self.episode;

  // Gather phase: wait for each child subtree. A child's release-store of
  // `arrived` happens after it gathered its own children, so observing it
  // (acquire) carries the whole subtree's pre-barrier writes upward.
  for (int c = kFanout * tid + 1; c <= kFanout * tid + kFanout && c < size_;
       ++c) {
    FlagWait wait;
    while (nodes_[static_cast<std::size_t>(c)]->arrived.load(
               std::memory_order_acquire) < gen) {
      wait.pause();
    }
  }

  if (tid == 0) {
    // Root saw every subtree: publish the release generation.
    release_->store(gen, std::memory_order_release);
    return;
  }
  self.arrived.store(gen, std::memory_order_release);
  FlagWait wait;
  while (release_->load(std::memory_order_acquire) < gen) wait.pause();
}

}  // namespace orca::rt
