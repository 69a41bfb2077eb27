#include "perf/samples.hpp"

#include <algorithm>
#include <deque>
#include <mutex>

#include "common/cacheline.hpp"

namespace orca::perf {

namespace detail {

/// Every event lane a store has created. Lanes live in a deque (stable
/// addresses, never shrinks); `free` holds the ones no thread leases now.
/// `mu` serializes leasing with the quiescent walkers (merge, totals,
/// clear); it also orders the samples of a writer that has handed its lane
/// back before a reader that walks that lane.
struct LanePool {
  explicit LanePool(std::size_t cap) : capacity(cap) {}

  SampleBuffer* acquire() {
    std::scoped_lock lk(mu);
    if (!free.empty()) {
      SampleBuffer* lane = free.back();
      free.pop_back();
      return lane;
    }
    lanes.emplace_back()->reserve(capacity);
    return &*lanes.back();
  }

  void release(SampleBuffer* lane) {
    std::scoped_lock lk(mu);
    free.push_back(lane);
  }

  std::mutex mu;
  const std::size_t capacity;
  std::deque<CachePadded<SampleBuffer>> lanes;
  std::vector<SampleBuffer*> free;
  std::atomic<bool> store_alive{true};
};

}  // namespace detail

namespace {

using detail::LanePool;

/// The calling thread's leases, one per store it has recorded into. Each
/// holds its pool alive, so a pool address cannot be reused while a lease
/// (or the one-entry cache below, which only ever names a leased pool)
/// still points at it.
struct LaneLeases {
  struct Lease {
    std::shared_ptr<LanePool> pool;
    SampleBuffer* lane;
  };
  std::vector<Lease> held;
  ~LaneLeases();
};

// Trivially destructible, so the hot path reads them without a TLS guard.
thread_local const LanePool* t_last_pool = nullptr;
thread_local SampleBuffer* t_last_lane = nullptr;
thread_local LaneLeases t_leases;

LaneLeases::~LaneLeases() {
  t_last_pool = nullptr;
  for (Lease& l : held) l.pool->release(l.lane);
}

SampleBuffer& lease_slow(const std::shared_ptr<LanePool>& pool) {
  auto& held = t_leases.held;
  // A lease on a destroyed store only pins that store's memory: drop it.
  std::erase_if(held, [](const LaneLeases::Lease& l) {
    return !l.pool->store_alive.load(std::memory_order_relaxed);
  });
  auto it = std::find_if(
      held.begin(), held.end(),
      [&](const LaneLeases::Lease& l) { return l.pool == pool; });
  if (it == held.end()) {
    it = held.insert(held.end(), {pool, pool->acquire()});
  }
  t_last_pool = pool.get();
  t_last_lane = it->lane;
  return *it->lane;
}

}  // namespace

SampleStore::SampleStore(std::size_t capacity)
    : pool_(std::make_shared<LanePool>(capacity)) {}

SampleStore::~SampleStore() {
  pool_->store_alive.store(false, std::memory_order_relaxed);
}

SampleBuffer& SampleStore::local_buffer() {
  if (t_last_pool == pool_.get()) return *t_last_lane;
  return lease_slow(pool_);
}

void SampleStore::for_each_lane(
    const std::function<void(const SampleBuffer&)>& fn) const {
  std::scoped_lock lk(pool_->mu);
  for (const auto& lane : pool_->lanes) fn(*lane);
}

std::vector<EventSample> SampleStore::merged_samples() const {
  std::vector<EventSample> out;
  for_each_lane([&](const SampleBuffer& lane) {
    out.insert(out.end(), lane.samples().begin(), lane.samples().end());
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const EventSample& a, const EventSample& b) {
                     return a.ticks < b.ticks;
                   });
  return out;
}

std::vector<CallstackRecord> SampleStore::merged_callstacks() const {
  std::vector<CallstackRecord> out;
  for_each_lane([&](const SampleBuffer& lane) {
    for (const StackHeader& h : lane.stacks()) {
      const auto frames = lane.frames(h);
      out.push_back({h.ticks, h.region_id, h.region_fn,
                     std::vector<const void*>(frames.begin(), frames.end())});
    }
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const CallstackRecord& a, const CallstackRecord& b) {
                     return a.ticks < b.ticks;
                   });
  return out;
}

std::uint64_t SampleStore::total_samples() const {
  std::uint64_t n = 0;
  for_each_lane([&](const SampleBuffer& lane) { n += lane.samples().size(); });
  return n;
}

std::uint64_t SampleStore::total_dropped() const {
  std::uint64_t n = 0;
  for_each_lane([&](const SampleBuffer& lane) { n += lane.dropped(); });
  return n;
}

std::size_t SampleStore::lanes() const {
  std::scoped_lock lk(pool_->mu);
  return pool_->lanes.size();
}

void SampleStore::clear() {
  std::scoped_lock lk(pool_->mu);
  for (auto& lane : pool_->lanes) lane->clear();
}

}  // namespace orca::perf
