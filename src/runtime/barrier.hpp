/// \file barrier.hpp
/// The team barrier.
///
/// Every implicit/explicit barrier of every benchmark funnels through it,
/// so it sits on the hottest path the EPCC/NPB overhead story has (paper
/// Sec. V measures BARRIER as its own directive). It is a fanout-4
/// combining tree: each parent spins only on its ≤4 children, so a crossing
/// costs O(n) total stores with constant per-line sharing and O(log₄ n)
/// latency. Waits escalate spin → yield → short sleep, so oversubscribed
/// teams (32 EPCC threads on few cores) stay live.
///
/// It is reusable-by-generation: flags carry monotonically increasing
/// episode numbers instead of reversing a sense bit, so a team descriptor
/// can `init()` and re-run regions indefinitely (including shrinking and
/// growing the team) without a rendezvous to reset state — `init()` only
/// runs while the team is quiescent (master-side reset_for_region, after
/// quiesce_workers).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/cacheline.hpp"

namespace orca::rt {

/// Fanout-4 combining-tree barrier. Thread t's children are 4t+1..4t+4;
/// each thread gathers its children's padded arrival flags, publishes its
/// own, and the root then bumps one release generation every waiter spins
/// on. Release-store/acquire-load chains up the tree and back down give
/// the usual barrier memory semantics.
///
/// `init(size)` is master-only and must not race with `arrive_and_wait`;
/// the runtime guarantees that by resetting teams only while quiescent.
/// `arrive_and_wait(tid)` is called by team member `tid` (0 <= tid < size),
/// which keys its tree node.
class TreeBarrier {
 public:
  void init(int size);
  void arrive_and_wait(int tid);

 private:
  static constexpr int kFanout = 4;

  struct Node {
    std::atomic<std::uint64_t> arrived{0};  ///< subtree-complete episode
    std::uint64_t episode = 0;              ///< owner-thread-only count
  };

  int size_ = 1;
  std::vector<CachePadded<Node>> nodes_;
  CachePadded<std::atomic<std::uint64_t>> release_;
};

}  // namespace orca::rt
