/// \file layout.hpp
/// On-disk (well, on-/dev/shm) layout of one ORCA export segment, shared
/// verbatim by the in-process exporter (src/shm/exporter.cpp), the
/// out-of-process reader (src/shm/reader.cpp, orcamon), and the drain
/// bench. Everything here is position-independent POD + lock-free
/// std::atomics, because the two sides of the segment are different
/// processes with different address spaces and independent lifetimes.
///
/// Segment anatomy (offsets carried in the header, never recomputed by
/// readers, so the two builds need not agree on padding):
///
///   [SegmentHeader]                       magic/version/geometry, the
///                                         attach + heartbeat handshake
///   [RingHeader x ring_count]             event rings (one per thread slot)
///   [RingHeader x ring_count]             sample rings (SIGPROF mirror)
///   [RingCell x ring_count x event_cap]   event cells
///   [RingCell x ring_count x sample_cap]  sample cells
///   [TelemetryMirror]                     seqlock'd metrics snapshot
///   [CrashRegion + text bytes]            shm-resident crash-dump section
///
/// ## Ring protocol: single-producer broadcast, non-destructive reads
///
/// The in-process EventRing (collector/async.hpp) is a Vyukov MPMC queue:
/// consumers *claim* cells with CAS. That protocol is wrong across a
/// process boundary — a reader that dies between claiming a cell and
/// stamping it consumed would wedge the producer's overwrite path forever.
/// Here the producer is the only writer and readers are invisible to it:
///
///   push(rec):  pos = tail.fetch_add(1)            (claim, wait-free)
///               cell.seq = 0                        (invalidate)
///               cell.{ns,a,b} = rec                 (relaxed payload)
///               cell.seq = pos + 1                  (release publish)
///
///   poll(cur):  accept cell only when seq == cur+1 before *and* after
///               copying the payload (seqlock validation); a reader that
///               fell behind computes its loss from the published tail
///               (lost = (tail - capacity) - cur) and jumps forward.
///
/// A crashed reader costs nothing; a crashed producer leaves at most one
/// mid-write cell per ring, which readers skip and count as lost. Every
/// store on the push path is a plain release store (free on x86/TSO), so
/// the hook stays signal-safe — the SIGPROF sampler publishes through the
/// same path.
///
/// ## Publication / heartbeat handshake
///
/// A segment is complete before it has a name: the exporter builds it in a
/// nameless O_TMPFILE, sets `ready` = 1, writes the first crash snapshot,
/// and only then links it into /dev/shm. A discovered segment is therefore
/// never mid-initialization; `ready` == 0 or a short file can only come
/// from a foreign or hostile creator, and readers reject it as corrupt.
/// Readers open and map read-only and never write to the segment.
///
/// Liveness is a sense-reversing pulse: every beat the producer flips
/// `heartbeat_sense` and stamps `heartbeat_ns`; a reader watches for the
/// *flip* with its own clock, so no cross-process clock comparison is
/// needed — a sense that stops flipping for a few intervals marks the
/// producer suspect, and kill(pid, 0) == ESRCH confirms death.
/// A named segment's `producer_state` is kActive, then kFinalized on clean
/// shutdown; a crash simply stops the pulse.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace orca::shm {

/// "ORCASHM1" little-endian; bump the trailing digit on layout breaks.
inline constexpr std::uint64_t kMagic = 0x314D48534143524FULL;
inline constexpr std::uint32_t kVersion = 1;

/// Producer lifecycle advertised in the header.
enum class ProducerState : std::uint32_t {
  kInitializing = 0,  ///< still being built (never visible under a name)
  kActive = 1,        ///< heartbeat running, rings live
  kFinalized = 2,     ///< clean shutdown: rings quiescent, totals final
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm layout needs address-free 64-bit atomics");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm layout needs address-free 32-bit atomics");

/// One decoded ring record, as the reader hands it out.
struct Record {
  std::uint64_t ns = 0;   ///< producer SteadyClock (CLOCK_MONOTONIC) stamp
  std::int32_t event = 0; ///< OMP_COLLECTORAPI_EVENT, or sampler state
  std::int32_t tid = 0;   ///< producer thread slot (gtid)
  std::uint64_t arg = 0;  ///< sampler: current region id; events: unused
};

/// One 32-byte broadcast cell. Payload fields are atomics with relaxed
/// ordering (not a seqlock over plain memory) so the cross-process torn
/// read is defined behaviour and TSan-clean in the in-process tests.
struct RingCell {
  std::atomic<std::uint64_t> seq;  ///< 0 = mid-write, pos+1 = holds pos
  std::atomic<std::uint64_t> ns;
  std::atomic<std::uint64_t> a;    ///< packed (event << 32) | u32(tid)
  std::atomic<std::uint64_t> b;    ///< arg
};
static_assert(sizeof(RingCell) == 32, "cell layout is part of the ABI");

/// Per-ring producer bookkeeping, one cacheline so producers on different
/// thread slots never false-share.
struct alignas(64) RingHeader {
  std::atomic<std::uint64_t> tail;  ///< next position to claim == produced
  std::uint64_t pad_[7];
};
static_assert(sizeof(RingHeader) == 64);

inline std::uint64_t pack_event(std::int32_t event, std::int32_t tid) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(event)) << 32) |
         static_cast<std::uint32_t>(tid);
}

inline std::int32_t packed_event(std::uint64_t a) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a >> 32));
}

inline std::int32_t packed_tid(std::uint64_t a) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a));
}

// ---------------------------------------------------------------------------
// Telemetry mirror: a seqlock'd copy of the producer's metrics counters,
// refreshed by the heartbeat thread. Capacities are fixed so the layout
// does not move when the telemetry catalog grows; `counter_count` says how
// many slots are meaningful in this producer's build.

inline constexpr std::size_t kMirrorCounterCap = 32;
inline constexpr std::size_t kMirrorGaugeCap = 16;

struct TelemetryMirror {
  /// Seqlock version: odd while the heartbeat is writing. Readers retry;
  /// a dead producer frozen on an odd version is reported as torn.
  std::atomic<std::uint64_t> version;
  std::atomic<std::uint64_t> counter_count;
  std::atomic<std::uint64_t> gauge_count;
  std::atomic<std::uint64_t> counters[kMirrorCounterCap];
  std::atomic<std::uint64_t> gauges[kMirrorGaugeCap];
};

// ---------------------------------------------------------------------------
// Crash region: PR 5's crash-dump sections made shm-resident. Two writers:
//
//  * the heartbeat thread keeps a rolling *live snapshot* (kind 1) so even
//    a SIGKILL — where no handler can run — leaves salvageable state;
//  * the crash handler (SIGSEGV/SIGBUS/SIGABRT) writes a *postmortem*
//    (kind 2) through async-signal-safe stores; a postmortem is never
//    overwritten by later snapshots.
//
/// `version` is the same odd/even seqlock as the mirror; a producer killed
/// mid-snapshot leaves it odd and the salvager labels the text torn.

enum : std::uint32_t {
  kCrashEmpty = 0,
  kCrashSnapshot = 1,
  kCrashPostmortem = 2,
};

struct CrashRegion {
  std::atomic<std::uint32_t> kind;
  std::atomic<std::uint32_t> length;   ///< valid bytes in the text area
  std::atomic<std::uint64_t> ns;       ///< producer clock at last write
  std::atomic<std::uint64_t> version;  ///< odd while being written
  // `capacity` bytes of text follow this struct in the segment.
};

// ---------------------------------------------------------------------------
// Segment header.

struct SegmentHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t header_bytes;    ///< sizeof(SegmentHeader) in the producer
  std::uint64_t segment_bytes;   ///< total mapping size
  std::int64_t owner_pid;
  std::uint64_t created_ns;      ///< producer SteadyClock at creation

  std::uint32_t ring_count;          ///< rings per bank (thread slots)
  std::uint32_t event_capacity;      ///< cells per event ring (pow2)
  std::uint32_t sample_capacity;     ///< cells per sample ring (pow2)
  std::uint32_t crash_capacity;      ///< text bytes in the crash region

  std::uint64_t event_headers_off;
  std::uint64_t sample_headers_off;
  std::uint64_t event_cells_off;
  std::uint64_t sample_cells_off;
  std::uint64_t telemetry_off;
  std::uint64_t crash_off;

  char label[64];  ///< producer-chosen display name (NUL-terminated)

  // --- handshake (all atomics; everything above is written pre-ready) ---
  std::atomic<std::uint32_t> ready;            ///< 1 once geometry is final
  std::atomic<std::uint32_t> producer_state;   ///< ProducerState
  std::atomic<std::uint32_t> heartbeat_sense;  ///< flips every beat
  std::uint32_t heartbeat_interval_ms;
  std::atomic<std::uint64_t> heartbeat_ns;     ///< producer clock, last beat
  std::atomic<std::uint64_t> heartbeat_beats;
  std::uint32_t pad0[2];  ///< reserved; readers never write the segment
  std::atomic<std::uint64_t> events_published; ///< heartbeat-summed tails
  std::atomic<std::uint64_t> samples_published;
};

// ---------------------------------------------------------------------------
// Geometry: one place computes every offset; the header carries the result.

struct Geometry {
  std::uint32_t ring_count = 0;
  std::uint32_t event_capacity = 0;   ///< already rounded to a power of two
  std::uint32_t sample_capacity = 0;  ///< already rounded to a power of two
  std::uint32_t crash_capacity = 0;

  std::uint64_t event_headers_off = 0;
  std::uint64_t sample_headers_off = 0;
  std::uint64_t event_cells_off = 0;
  std::uint64_t sample_cells_off = 0;
  std::uint64_t telemetry_off = 0;
  std::uint64_t crash_off = 0;
  std::uint64_t total_bytes = 0;

  static std::uint32_t round_pow2(std::uint32_t v) noexcept {
    std::uint32_t p = 1;
    while (p < v && p < (1u << 30)) p <<= 1;
    return p;
  }

  static Geometry compute(std::uint32_t rings, std::uint32_t event_cap,
                          std::uint32_t sample_cap,
                          std::uint32_t crash_cap) noexcept {
    Geometry g;
    g.ring_count = rings == 0 ? 1 : rings;
    g.event_capacity = round_pow2(event_cap == 0 ? 1 : event_cap);
    g.sample_capacity = round_pow2(sample_cap == 0 ? 1 : sample_cap);
    g.crash_capacity = crash_cap;
    const std::uint64_t headers_bytes =
        align(static_cast<std::uint64_t>(g.ring_count) * sizeof(RingHeader));
    std::uint64_t off = align(sizeof(SegmentHeader));
    g.event_headers_off = off;
    off += headers_bytes;
    g.sample_headers_off = off;
    off += headers_bytes;
    g.event_cells_off = off;
    off += align(static_cast<std::uint64_t>(g.ring_count) * g.event_capacity *
                 sizeof(RingCell));
    g.sample_cells_off = off;
    off += align(static_cast<std::uint64_t>(g.ring_count) * g.sample_capacity *
                 sizeof(RingCell));
    g.telemetry_off = off;
    off += align(sizeof(TelemetryMirror));
    g.crash_off = off;
    off += align(sizeof(CrashRegion) + g.crash_capacity);
    g.total_bytes = off;
    return g;
  }

 private:
  static std::uint64_t align(std::uint64_t n) noexcept {
    return (n + 63) & ~std::uint64_t{63};
  }
};

// ---------------------------------------------------------------------------
// Producer side: wait-free broadcast push. `mask = capacity - 1`.

inline void ring_push(RingHeader& h, RingCell* cells, std::uint64_t mask,
                      const Record& rec) noexcept {
  const std::uint64_t pos = h.tail.fetch_add(1, std::memory_order_relaxed);
  RingCell& c = cells[pos & mask];
  // Release stores throughout: the invalidation (seq = 0) must become
  // visible no later than the payload, or a reader could revalidate a
  // stale seq against a half-new payload. On x86 these are plain stores.
  c.seq.store(0, std::memory_order_release);
  c.ns.store(rec.ns, std::memory_order_release);
  c.a.store(pack_event(rec.event, rec.tid), std::memory_order_release);
  c.b.store(rec.arg, std::memory_order_release);
  c.seq.store(pos + 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Reader side: private cursor + honest loss book.

/// One reader's position in one ring. Readers never write to the segment,
/// so any number of cursors can watch the same ring — but one cursor must
/// only ever be advanced by one thread at a time.
struct Cursor {
  std::uint64_t next = 0;  ///< position of the next record to read
  std::uint64_t read = 0;  ///< records successfully copied out
  std::uint64_t lost = 0;  ///< records overwritten before we got to them
};

enum class Poll {
  kEmpty,   ///< nothing new (or the next cell is mid-write; retry later)
  kRecord,  ///< *out holds the record at the old cursor position
  kLost,    ///< fell behind; loss was counted and the cursor resynced
};

inline Poll ring_poll(const RingHeader& h, const RingCell* cells,
                      std::uint64_t mask, std::uint64_t capacity, Cursor& cur,
                      Record* out) noexcept {
  const std::uint64_t tail = h.tail.load(std::memory_order_acquire);
  if (cur.next >= tail) return Poll::kEmpty;
  if (tail > capacity && cur.next < tail - capacity) {
    // The producer lapped us: everything up to tail - capacity is gone.
    const std::uint64_t oldest = tail - capacity;
    cur.lost += oldest - cur.next;
    cur.next = oldest;
  }
  const RingCell& c = cells[cur.next & mask];
  const std::uint64_t s1 = c.seq.load(std::memory_order_acquire);
  if (s1 != cur.next + 1) {
    if (s1 > cur.next + 1) {
      // Overwritten between the tail check and here; resync forward.
      const std::uint64_t now_holds = s1 - 1;       // position in the cell
      const std::uint64_t oldest = now_holds >= capacity
                                       ? now_holds - capacity + 1
                                       : 0;
      const std::uint64_t jump = oldest > cur.next ? oldest : cur.next + 1;
      cur.lost += jump - cur.next;
      cur.next = jump;
      return Poll::kLost;
    }
    // seq is 0 (mid-write) or a previous lap's stamp: the producer claimed
    // this position but has not finished publishing it. Retry later.
    return Poll::kEmpty;
  }
  out->ns = c.ns.load(std::memory_order_relaxed);
  const std::uint64_t a = c.a.load(std::memory_order_relaxed);
  out->arg = c.b.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (c.seq.load(std::memory_order_relaxed) != s1) {
    // Torn: the producer lapped us mid-copy. Count it and move on.
    cur.lost += 1;
    cur.next += 1;
    return Poll::kLost;
  }
  out->event = packed_event(a);
  out->tid = packed_tid(a);
  cur.next += 1;
  cur.read += 1;
  return Poll::kRecord;
}

/// After the producer is known dead/finalized and a drain pass made no
/// progress, charge whatever is still unread (at most one mid-write cell
/// per ring, plus anything the tail claims) to the loss book so
/// produced == read + lost holds exactly.
inline void cursor_finalize(const RingHeader& h, Cursor& cur) noexcept {
  const std::uint64_t tail = h.tail.load(std::memory_order_acquire);
  if (cur.next < tail) {
    cur.lost += tail - cur.next;
    cur.next = tail;
  }
}

}  // namespace orca::shm
