#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <deque>
#include <mutex>

#include "collector/api.h"
#include "common/cacheline.hpp"
#include "common/clock.hpp"
#include "common/strutil.hpp"

namespace orca::telemetry {

namespace detail {
// Constant-initialized: the disarmed hook load needs no guard.
std::atomic<std::uint64_t> g_armed{0};
}  // namespace detail

namespace {

std::atomic<std::size_t> g_ring_capacity{4096};

constexpr std::uint64_t encode_meta(std::uint32_t arg, SpanKind kind,
                                    Phase phase) noexcept {
  return static_cast<std::uint64_t>(arg) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(kind)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(phase)) << 48);
}

/// One timeline ring cell. Fields are relaxed atomics so concurrent
/// best-effort readers are data-race-free; a record overwritten mid-read
/// may decode torn (two halves from different records), which the exporter
/// tolerates. Single writer, so no per-cell sequence is needed for the
/// quiescent (exact) read path.
struct Cell {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> meta{0};
};

/// Per-thread telemetry slot: the timeline ring plus one metrics shard.
/// Cacheline-aligned so neighbouring slots' hot counters never share a line.
/// Slots are created on first armed use, parked on a free list when their
/// thread exits (data retained for export), and reused — reset — by the
/// next new thread, so runtime churn does not grow memory without bound.
struct alignas(kCacheLineSize) ThreadSlot {
  explicit ThreadSlot(int tid_, std::size_t ring_records)
      : tid(tid_), mask(ring_records - 1), cells(ring_records) {}

  // -- timeline (single writer: the owning thread) --
  void push(std::uint64_t ns, SpanKind kind, Phase phase,
            std::uint32_t arg) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Cell& c = cells[static_cast<std::size_t>(h) & mask];
    c.ns.store(ns, std::memory_order_relaxed);
    c.meta.store(encode_meta(arg, kind, phase), std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  std::uint64_t overwritten() const noexcept {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    return h > cells.size() ? h - cells.size() : 0;
  }

  // -- metrics shard (relaxed atomics; aggregated on read) --
  void add(Counter c, std::uint64_t delta) noexcept {
    counters[static_cast<std::size_t>(c)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  void maximize(Gauge g, std::uint64_t v) noexcept {
    std::atomic<std::uint64_t>& a = gauges[static_cast<std::size_t>(g)];
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void observe(Histogram h, std::uint64_t ns) noexcept {
    const auto i = static_cast<std::size_t>(h);
    const auto bucket = static_cast<std::size_t>(
        std::min<unsigned>(std::bit_width(ns), kHistogramBuckets - 1));
    hist_buckets[i][bucket].fetch_add(1, std::memory_order_relaxed);
    hist_sum[i].fetch_add(ns, std::memory_order_relaxed);
    hist_count[i].fetch_add(1, std::memory_order_relaxed);
    std::atomic<std::uint64_t>& mx = hist_max[i];
    std::uint64_t cur = mx.load(std::memory_order_relaxed);
    while (cur < ns &&
           !mx.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }

  int tid;
  std::string name;            ///< guarded by Global::mu
  std::size_t mask;
  std::atomic<std::uint64_t> head{0};
  std::vector<Cell> cells;

  std::atomic<std::uint64_t> counters[kCounterCount] = {};
  std::atomic<std::uint64_t> gauges[kGaugeCount] = {};
  std::atomic<std::uint64_t> hist_buckets[kHistogramCount][kHistogramBuckets] =
      {};
  std::atomic<std::uint64_t> hist_sum[kHistogramCount] = {};
  std::atomic<std::uint64_t> hist_count[kHistogramCount] = {};
  std::atomic<std::uint64_t> hist_max[kHistogramCount] = {};
};

constexpr std::size_t kMaxSlots = 1024;

struct Global {
  std::mutex mu;
  std::deque<ThreadSlot*> slots;               ///< every slot ever created
  std::vector<ThreadSlot*> free_list;          ///< parked, reusable
  std::uint64_t threads_tracked = 0;
  int arm_counts[2] = {0, 0};  ///< refcounts for kTimelineBit, kMetricsBit
  /// Metrics folded out of slots that were reset for reuse.
  std::uint64_t retired_counters[kCounterCount] = {};
  std::uint64_t retired_gauges[kGaugeCount] = {};
  std::uint64_t retired_hist_buckets[kHistogramCount][kHistogramBuckets] = {};
  std::uint64_t retired_hist_sum[kHistogramCount] = {};
  std::uint64_t retired_hist_count[kHistogramCount] = {};
  std::uint64_t retired_hist_max[kHistogramCount] = {};
  std::uint64_t retired_overwrites = 0;
};

/// Leaked on purpose: thread_local slot leases run during thread (and
/// process) teardown, after namespace-scope destructors would have fired.
Global& global() {
  static Global* g = new Global;
  return *g;
}

/// Fold a slot's shard into the retired accumulators and zero it for the
/// next owner. Caller holds Global::mu; the previous owner is gone and the
/// next one has not started, so plain stores are race-free in practice
/// (kept atomic for TSan's benefit).
void reset_slot_locked(Global& g, ThreadSlot& slot) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    g.retired_counters[i] +=
        slot.counters[i].exchange(0, std::memory_order_relaxed);
  }
  g.retired_overwrites += slot.overwritten();
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    g.retired_gauges[i] = std::max(
        g.retired_gauges[i], slot.gauges[i].exchange(0,
                                                     std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      g.retired_hist_buckets[i][b] +=
          slot.hist_buckets[i][b].exchange(0, std::memory_order_relaxed);
    }
    g.retired_hist_sum[i] +=
        slot.hist_sum[i].exchange(0, std::memory_order_relaxed);
    g.retired_hist_count[i] +=
        slot.hist_count[i].exchange(0, std::memory_order_relaxed);
    g.retired_hist_max[i] = std::max(
        g.retired_hist_max[i],
        slot.hist_max[i].exchange(0, std::memory_order_relaxed));
  }
  slot.head.store(0, std::memory_order_release);
  slot.name.clear();
}

ThreadSlot* acquire_slot() {
  Global& g = global();
  std::scoped_lock lk(g.mu);
  ++g.threads_tracked;
  if (!g.free_list.empty()) {
    ThreadSlot* slot = g.free_list.back();
    g.free_list.pop_back();
    reset_slot_locked(g, *slot);
    slot->name = strfmt("thread-%d", slot->tid);
    return slot;
  }
  if (g.slots.size() >= kMaxSlots) return nullptr;
  const int tid = static_cast<int>(g.slots.size());
  const std::size_t cap = g_ring_capacity.load(std::memory_order_relaxed);
  auto* slot = new ThreadSlot(tid, cap);
  slot->name = strfmt("thread-%d", tid);
  g.slots.emplace_back(slot);
  return slot;
}

void release_slot(ThreadSlot* slot) {
  if (slot == nullptr) return;
  Global& g = global();
  std::scoped_lock lk(g.mu);
  // Data stays readable for export; the slot is reset only on reuse.
  g.free_list.push_back(slot);
}

/// RAII lease: parks the slot when the owning thread exits.
struct SlotLease {
  ThreadSlot* slot = nullptr;
  bool exhausted = false;  ///< hit kMaxSlots; stop retrying
  ~SlotLease() { release_slot(slot); }
};

thread_local SlotLease t_lease;

ThreadSlot* slot() noexcept {
  if (t_lease.slot != nullptr) return t_lease.slot;
  if (t_lease.exhausted) return nullptr;
  t_lease.slot = acquire_slot();
  t_lease.exhausted = t_lease.slot == nullptr;
  return t_lease.slot;
}

}  // namespace

namespace detail {

void record_slow(SpanKind kind, Phase phase, std::uint32_t arg) noexcept {
  record_at_slow(SteadyClock::now(), kind, phase, arg);
}

void record_at_slow(std::uint64_t ns, SpanKind kind, Phase phase,
                    std::uint32_t arg) noexcept {
  ThreadSlot* s = slot();
  if (s != nullptr) s->push(ns, kind, phase, arg);
}

void count_slow(Counter c, std::uint64_t delta) noexcept {
  ThreadSlot* s = slot();
  if (s != nullptr) s->add(c, delta);
}

void gauge_max_slow(Gauge g, std::uint64_t value) noexcept {
  ThreadSlot* s = slot();
  if (s != nullptr) s->maximize(g, value);
}

void observe_slow(Histogram h, std::uint64_t ns) noexcept {
  ThreadSlot* s = slot();
  if (s != nullptr) s->observe(h, ns);
}

}  // namespace detail

void arm(std::uint64_t bits) {
  Global& g = global();
  std::scoped_lock lk(g.mu);
  if ((bits & kTimelineBit) != 0) ++g.arm_counts[0];
  if ((bits & kMetricsBit) != 0) ++g.arm_counts[1];
  const std::uint64_t mask = (g.arm_counts[0] > 0 ? kTimelineBit : 0) |
                             (g.arm_counts[1] > 0 ? kMetricsBit : 0);
  detail::g_armed.store(mask, std::memory_order_relaxed);
}

void disarm(std::uint64_t bits) {
  Global& g = global();
  std::scoped_lock lk(g.mu);
  if ((bits & kTimelineBit) != 0 && g.arm_counts[0] > 0) --g.arm_counts[0];
  if ((bits & kMetricsBit) != 0 && g.arm_counts[1] > 0) --g.arm_counts[1];
  const std::uint64_t mask = (g.arm_counts[0] > 0 ? kTimelineBit : 0) |
                             (g.arm_counts[1] > 0 ? kMetricsBit : 0);
  detail::g_armed.store(mask, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t records) {
  records = std::clamp<std::size_t>(records, 64, std::size_t{1} << 20);
  g_ring_capacity.store(std::bit_ceil(records), std::memory_order_relaxed);
}

std::size_t ring_capacity() noexcept {
  return g_ring_capacity.load(std::memory_order_relaxed);
}

const char* span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kState: return "state";
    case SpanKind::kRingEnqueueStall: return "ring-enqueue-stall";
    case SpanKind::kDrainPass: return "drain-pass";
    case SpanKind::kGenerationPublish: return "generation-publish";
    case SpanKind::kGenerationRetire: return "generation-retire";
    case SpanKind::kParallelRegion: return "parallel-region";
  }
  return "?";
}

std::string state_name(int state) {
  switch (state) {
    case THR_OVHD_STATE: return "overhead";
    case THR_WORK_STATE: return "work";
    case THR_IBAR_STATE: return "ibar-wait";
    case THR_EBAR_STATE: return "ebar-wait";
    case THR_IDLE_STATE: return "idle";
    case THR_SERIAL_STATE: return "serial";
    case THR_REDUC_STATE: return "reduction";
    case THR_LKWT_STATE: return "lock-wait";
    case THR_CTWT_STATE: return "critical-wait";
    case THR_ODWT_STATE: return "ordered-wait";
    case THR_ATWT_STATE: return "atomic-wait";
    default: return strfmt("state-%d", state);
  }
}

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kForks: return "forks";
    case Counter::kJoins: return "joins";
    case Counter::kBarrierWaits: return "barrier_waits";
    case Counter::kTasksSpawned: return "tasks_spawned";
    case Counter::kTasksExecuted: return "tasks_executed";
    case Counter::kCallbackFailures: return "callback_failures";
    case Counter::kRingEnqueueStalls: return "ring_enqueue_stalls";
    case Counter::kDrainPasses: return "drain_passes";
    case Counter::kGenerationsPublished: return "generations_published";
    case Counter::kGenerationsRetired: return "generations_retired";
    case Counter::kTimelineOverwrites: return "timeline_overwrites";
    case Counter::kPipelineDrops: return "pipeline_drops";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) noexcept {
  switch (g) {
    case Gauge::kTaskQueueDepth: return "task_queue_depth_hwm";
    case Gauge::kRingOccupancy: return "ring_occupancy_hwm";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* histogram_name(Histogram h) noexcept {
  switch (h) {
    case Histogram::kBarrierWaitNs: return "barrier_wait_ns";
    case Histogram::kEnqueueStallNs: return "enqueue_stall_ns";
    case Histogram::kDrainPassNs: return "drain_pass_ns";
    case Histogram::kRetireLatencyNs: return "retire_latency_ns";
    case Histogram::kCount: break;
  }
  return "?";
}

double HistogramView::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[b]);
    if (next >= target) {
      // Linear interpolation inside the bucket [2^(b-1), 2^b).
      const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
      const double hi = static_cast<double>(1ull << b);
      const double frac =
          (target - cumulative) / static_cast<double>(buckets[b]);
      return lo + (hi - lo) * frac;
    }
    cumulative = next;
  }
  return static_cast<double>(max_ns);
}

void name_thread(const std::string& name) {
  if (armed_mask() == 0) return;
  ThreadSlot* s = slot();
  if (s == nullptr) return;
  Global& g = global();
  std::scoped_lock lk(g.mu);
  s->name = name;
}

MetricsView metrics() {
  Global& g = global();
  std::scoped_lock lk(g.mu);
  MetricsView view;
  view.armed = armed_mask();
  view.threads_tracked = g.threads_tracked;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    view.counters[i] = g.retired_counters[i];
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    view.gauges[i] = g.retired_gauges[i];
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    HistogramView& h = view.histograms[i];
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] = g.retired_hist_buckets[i][b];
    }
    h.sum_ns = g.retired_hist_sum[i];
    h.count = g.retired_hist_count[i];
    h.max_ns = g.retired_hist_max[i];
  }
  std::uint64_t overwrites = g.retired_overwrites;
  for (const ThreadSlot* sp : g.slots) {
    const ThreadSlot& s = *sp;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      view.counters[i] += s.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      view.gauges[i] = std::max(
          view.gauges[i], s.gauges[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < kHistogramCount; ++i) {
      HistogramView& h = view.histograms[i];
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[b] += s.hist_buckets[i][b].load(std::memory_order_relaxed);
      }
      h.sum_ns += s.hist_sum[i].load(std::memory_order_relaxed);
      h.count += s.hist_count[i].load(std::memory_order_relaxed);
      h.max_ns = std::max(h.max_ns,
                          s.hist_max[i].load(std::memory_order_relaxed));
    }
    const std::uint64_t head = s.head.load(std::memory_order_acquire);
    view.timeline_records += std::min<std::uint64_t>(head, s.cells.size());
    overwrites += s.overwritten();
  }
  view.counters[static_cast<std::size_t>(Counter::kTimelineOverwrites)] +=
      overwrites;
  return view;
}

std::vector<ThreadTimeline> timelines() {
  Global& g = global();
  std::scoped_lock lk(g.mu);
  std::vector<ThreadTimeline> out;
  out.reserve(g.slots.size());
  for (const ThreadSlot* sp : g.slots) {
    const ThreadSlot& s = *sp;
    ThreadTimeline t;
    t.tid = s.tid;
    t.name = s.name;
    t.overwritten = s.overwritten();
    const std::uint64_t head = s.head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, s.cells.size());
    t.records.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Cell& c = s.cells[static_cast<std::size_t>(i) & s.mask];
      TimelineRecord rec;
      rec.ns = c.ns.load(std::memory_order_relaxed);
      const std::uint64_t meta = c.meta.load(std::memory_order_relaxed);
      rec.arg = static_cast<std::uint32_t>(meta);
      rec.kind = static_cast<SpanKind>((meta >> 32) & 0xFFFF);
      rec.phase = static_cast<Phase>((meta >> 48) & 0xFF);
      t.records.push_back(rec);
    }
    if (!t.records.empty() || t.overwritten != 0) out.push_back(std::move(t));
  }
  return out;
}

void reset_for_testing() {
  Global& g = global();
  std::scoped_lock lk(g.mu);
  for (ThreadSlot* sp : g.slots) {
    reset_slot_locked(g, *sp);
    sp->name = strfmt("thread-%d", sp->tid);
  }
  for (std::uint64_t& c : g.retired_counters) c = 0;
  for (std::uint64_t& v : g.retired_gauges) v = 0;
  for (auto& buckets : g.retired_hist_buckets) {
    for (std::uint64_t& b : buckets) b = 0;
  }
  for (std::uint64_t& v : g.retired_hist_sum) v = 0;
  for (std::uint64_t& v : g.retired_hist_count) v = 0;
  for (std::uint64_t& v : g.retired_hist_max) v = 0;
  g.retired_overwrites = 0;
  g.threads_tracked = g.slots.size();
}

}  // namespace orca::telemetry
