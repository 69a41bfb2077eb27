/// \file samples.hpp
/// Sample storage for the collector tool — the "measurement/storage phase"
/// whose cost dominates the paper's overhead breakdown (Sec. V-B: 81-99% of
/// the observed overhead is measurement/storage, not callbacks).
///
/// Event samples and join-time callstack records go into single-writer
/// per-OS-thread lanes: events drop + count on overflow, never block;
/// callstacks append to a flat frame arena, since their cost is exactly
/// what experiment E6 measures.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "testing/fault_injection.hpp"

namespace orca::perf {

/// One event notification sample.
struct EventSample {
  std::uint64_t ticks = 0;      ///< hardware time-counter value
  std::uint64_t region_id = 0;  ///< current parallel region (0 = none)
  std::int32_t event = 0;       ///< OMP_COLLECTORAPI_EVENT value
  std::int32_t tid = 0;         ///< sampling thread's gtid
};

/// One join-time callstack record (implementation model, reconstructed to
/// the user model offline): the exported, self-contained form.
struct CallstackRecord {
  std::uint64_t ticks = 0;
  std::uint64_t region_id = 0;
  const void* region_fn = nullptr;        ///< outlined procedure
  std::vector<const void*> frames;        ///< innermost first
};

/// A callstack record as a lane stores it: a fixed-size header whose
/// frames sit in the lane's frame arena at [first, first + depth).
struct StackHeader {
  std::uint64_t ticks = 0;
  std::uint64_t region_id = 0;
  const void* region_fn = nullptr;
  std::size_t first = 0;
  std::size_t depth = 0;
};

/// Append-only sample lane with a single writer: the OS thread that leased
/// it from a SampleStore (SampleStore::local_buffer()). Growth is amortized
/// (the paper's "storage" cost the breakdown experiment measures); beyond
/// the hard cap event samples are dropped and counted, never blocking the
/// application. Callstack records are not capped. Nothing here takes a
/// lock; it is not signal-safe (it may grow its vectors), so SIGPROF
/// samples go to SignalSampleLane.
class SampleBuffer {
 public:
  /// Set the hard cap and pre-reserve a modest initial block.
  void reserve(std::size_t capacity) {
    capacity_ = capacity;
    samples_.reserve(std::min<std::size_t>(capacity, 4096));
  }

  /// Owner-only append.
  void record(const EventSample& s) {
    // Injected allocation failure behaves exactly like hitting the hard
    // cap: drop and count, never block or throw into the event path.
    if (testing::FaultInjector::alloc_fails(
            testing::FaultPoint::kSampleRecord)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (samples_.size() < capacity_) {
      samples_.push_back(s);
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Owner-only append of a join callstack: a header, plus the frames
  /// copied into the flat arena.
  void record_callstack(std::uint64_t ticks, std::uint64_t region_id,
                        const void* region_fn,
                        std::span<const void* const> frames) {
    stacks_.push_back({ticks, region_id, region_fn, frames_.size(),
                       frames.size()});
    frames_.insert(frames_.end(), frames.begin(), frames.end());
  }

  /// Quiescent-only: callers read after the writer has joined or handed
  /// its lane back (merge/report paths), so no snapshot copy is taken.
  const std::vector<EventSample>& samples() const noexcept { return samples_; }

  /// Quiescent-only, like samples().
  const std::vector<StackHeader>& stacks() const noexcept { return stacks_; }
  std::span<const void* const> frames(const StackHeader& h) const noexcept {
    return {frames_.data() + h.first, h.depth};
  }

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Quiescent-only, like samples().
  void clear() noexcept {
    samples_.clear();
    stacks_.clear();
    frames_.clear();
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_ = 0;
  std::vector<EventSample> samples_;
  std::vector<StackHeader> stacks_;
  std::vector<const void*> frames_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Fixed-capacity, truly async-signal-safe sample lane: one writer (the
/// thread whose signal handler records into it), any number of quiescent
/// readers. The array is preallocated up front — record() performs no
/// allocation, locking, or syscalls, so it is the storage path a SIGPROF
/// handler uses (SampleBuffer, in contrast, may grow its vector). The crash
/// postmortem flusher reads count() with acquire ordering from an arbitrary
/// thread, which is why the counter publishes each slot with release
/// semantics.
class SignalSampleLane {
 public:
  explicit SignalSampleLane(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        slots_(std::make_unique<EventSample[]>(capacity_)) {}

  /// Single-writer append; drop-and-count when full. Safe from a signal
  /// handler running on the owning thread.
  void record(const EventSample& s) noexcept {
    const std::size_t n = count_.load(std::memory_order_relaxed);
    if (n >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slots_[n] = s;
    count_.store(n + 1, std::memory_order_release);
  }

  /// Samples published so far (acquire: the slots below the count are
  /// fully written, even when read from another thread or a crash handler).
  std::size_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  const EventSample* data() const noexcept { return slots_.get(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  void clear() noexcept {
    count_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<EventSample[]> slots_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

namespace detail {
struct LanePool;
}  // namespace detail

/// Per-thread sample storage for one tool session. Event samples and
/// callstacks go into single-writer lanes leased per OS thread, not per
/// gtid: several MiniMPI rank masters all carry gtid 0, and each still gets
/// a lane of its own. A thread takes a lane on its first local_buffer() and
/// hands it back when it exits; a later thread reuses it, so lanes are
/// bounded by the number of recording threads alive at once. Merge, totals,
/// for_each_lane() and clear() walk every lane and are quiescent-only.
class SampleStore {
 public:
  /// Every lane is capped at `capacity` event samples.
  explicit SampleStore(std::size_t capacity);
  ~SampleStore();
  SampleStore(const SampleStore&) = delete;
  SampleStore& operator=(const SampleStore&) = delete;

  /// The calling thread's lane, leased on first use.
  SampleBuffer& local_buffer();

  /// Visit every lane created so far, in creation order.
  void for_each_lane(const std::function<void(const SampleBuffer&)>& fn) const;

  /// All event samples, merged across threads, ordered by tick.
  std::vector<EventSample> merged_samples() const;

  /// All callstack records, merged, ordered by tick.
  std::vector<CallstackRecord> merged_callstacks() const;

  std::uint64_t total_samples() const;
  std::uint64_t total_dropped() const;
  /// Lanes created so far (leased or free).
  std::size_t lanes() const;

  void clear();

 private:
  /// Shared with every lease, so a thread that outlives the store still
  /// has somewhere to return its lane.
  std::shared_ptr<detail::LanePool> pool_;
};

}  // namespace orca::perf
