#include "shm/exporter.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>

#include "common/clock.hpp"
#include "shm/layout.hpp"
#include "shm/reader.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/fault_injection.hpp"

namespace orca::shm {
namespace {

/// Async-signal-safe append of a "key value\n" line into a bounded char
/// region; the crash postmortem cannot use stdio or allocation.
struct TextCursor {
  char* base;
  std::uint32_t cap;
  std::uint32_t len = 0;

  void put(char c) noexcept {
    if (len < cap) base[len++] = c;
  }
  void str(const char* s) noexcept {
    while (*s != '\0') put(*s++);
  }
  void u64(unsigned long long v) noexcept {
    char buf[24];
    char* p = buf + sizeof(buf);
    *--p = '\0';
    do {
      *--p = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    str(p);
  }
  void kv(const char* key, unsigned long long v) noexcept {
    str(key);
    put(' ');
    u64(v);
    put('\n');
  }
};

}  // namespace

/// The mapped producer side of one segment. create() builds it privately
/// and names it once complete; finalize() closes the books and drops the
/// name; destruction unmaps. All hot-path members are raw pointers
/// into the mapping so the publish paths stay signal-safe.
class ShmExporter {
 public:
  static ShmExporter* create(const ExporterOptions& opts) {
    ORCA_FAULT_POINT(kShmArm);
    if (testing::FaultInjector::alloc_fails(testing::FaultPoint::kShmArm)) {
      // Stand-in for ENOSPC/EPERM at sizing time: the export arm must
      // degrade to a warning, never fail the hosting runtime.
      std::fprintf(stderr,
                   "ORCA: shm export disabled: injected arm fault "
                   "(simulated ENOSPC)\n");
      return nullptr;
    }
    // Built nameless, named only once complete: an O_TMPFILE in /dev/shm
    // has no directory entry until linkat() gives it one, so discovery can
    // never see a half-built segment, and a producer killed mid-create
    // leaves nothing behind. linkat fails EEXIST on a taken name, as
    // O_EXCL would: never silently scribble over someone else's rings.
    const std::string path = "/dev/shm/" + opts.name;
    const int fd = ::open("/dev/shm", O_TMPFILE | O_RDWR, 0600);
    if (fd < 0) {
      std::fprintf(stderr,
                   "ORCA: shm export disabled: open(/dev/shm, O_TMPFILE) "
                   "failed: %s\n",
                   std::strerror(errno));
      return nullptr;
    }
    const Geometry geo =
        Geometry::compute(opts.ring_count, opts.event_capacity,
                          opts.sample_capacity, opts.crash_capacity);
    if (::ftruncate(fd, static_cast<off_t>(geo.total_bytes)) != 0) {
      std::fprintf(stderr,
                   "ORCA: shm export disabled: ftruncate(%s, %llu) failed: "
                   "%s\n",
                   path.c_str(),
                   static_cast<unsigned long long>(geo.total_bytes),
                   std::strerror(errno));
      ::close(fd);
      return nullptr;
    }
    void* base = ::mmap(nullptr, geo.total_bytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      std::fprintf(stderr, "ORCA: shm export disabled: mmap(%s) failed: %s\n",
                   path.c_str(), std::strerror(errno));
      ::close(fd);
      return nullptr;
    }
    auto* e = new ShmExporter(opts, geo, base);
    const std::string proc = "/proc/self/fd/" + std::to_string(fd);
    const int linked = ::linkat(AT_FDCWD, proc.c_str(), AT_FDCWD,
                                path.c_str(), AT_SYMLINK_FOLLOW);
    const int link_errno = errno;
    ::close(fd);
    if (linked != 0) {
      std::fprintf(stderr, "ORCA: shm export disabled: linkat(%s) failed: %s\n",
                   path.c_str(), std::strerror(link_errno));
      delete e;  // never named: dropping the mapping frees the file
      return nullptr;
    }
    e->heartbeat_ = std::thread([e] { e->heartbeat_loop(); });
    return e;
  }

  ~ShmExporter() { ::munmap(base_, geo_.total_bytes); }

  /// Clean shutdown: stop the heartbeat, write the final beat and the
  /// finalized state, then drop the name.
  void finalize() {
    {
      std::unique_lock lk(hb_mu_);
      hb_stop_ = true;
      hb_cv_.notify_all();
    }
    if (heartbeat_.joinable()) heartbeat_.join();
    // Final beat by hand: totals, telemetry mirror, snapshot, then the
    // finalized state — readers that see kFinalized may trust the books.
    refresh_totals();
    mirror_telemetry();
    write_snapshot();
    header_->heartbeat_ns.store(SteadyClock::now(), std::memory_order_release);
    header_->producer_state.store(
        static_cast<std::uint32_t>(ProducerState::kFinalized),
        std::memory_order_release);
    // Readers are invisible to the producer, so none can hold its exit
    // hostage. Their mappings survive the unlink; only the name goes away.
    ::shm_unlink(("/" + name_).c_str());
  }

  const std::string& name() const noexcept { return name_; }
  SegmentHeader* header() noexcept { return header_; }

  /// Wait-free, async-signal-safe.
  void publish_event(int tid, int event) noexcept {
    const std::uint32_t ring = ring_for(tid);
    Record rec;
    rec.ns = SteadyClock::now();
    rec.event = event;
    rec.tid = tid;
    ring_push(event_headers_[ring], event_cells(ring), event_mask_, rec);
  }

  /// Wait-free, async-signal-safe (the SIGPROF path).
  void publish_sample(int tid, int state, std::uint64_t region) noexcept {
    const std::uint32_t ring = ring_for(tid);
    Record rec;
    rec.ns = SteadyClock::now();
    rec.event = state;
    rec.tid = tid;
    rec.arg = region;
    ring_push(sample_headers_[ring], sample_cells(ring), sample_mask_, rec);
  }

  /// Async-signal-safe postmortem into the crash region (+ optional dump
  /// fd mirror via the caller). One-shot across snapshot writers: once
  /// kind is kCrashPostmortem the heartbeat never touches the region.
  void write_postmortem() noexcept {
    CrashRegion* cr = crash_;
    cr->version.fetch_add(1, std::memory_order_acq_rel);  // odd: writing
    cr->kind.store(kCrashPostmortem, std::memory_order_release);
    TextCursor t{crash_text_, geo_.crash_capacity};
    t.str("ORCA_SHM_CRASH v1\n");
    t.kv("postmortem", 1);
    fill_crash_body(t);
    cr->length.store(t.len, std::memory_order_release);
    cr->ns.store(SteadyClock::now(), std::memory_order_release);
    cr->version.fetch_add(1, std::memory_order_release);  // even: done
  }

 private:
  ShmExporter(const ExporterOptions& opts, const Geometry& geo, void* base)
      : name_(opts.name), geo_(geo), base_(static_cast<char*>(base)) {
    header_ = new (base_) SegmentHeader{};
    header_->magic = kMagic;
    header_->version = kVersion;
    header_->header_bytes = sizeof(SegmentHeader);
    header_->segment_bytes = geo.total_bytes;
    header_->owner_pid = static_cast<std::int64_t>(::getpid());
    header_->created_ns = SteadyClock::now();
    header_->ring_count = geo.ring_count;
    header_->event_capacity = geo.event_capacity;
    header_->sample_capacity = geo.sample_capacity;
    header_->crash_capacity = geo.crash_capacity;
    header_->event_headers_off = geo.event_headers_off;
    header_->sample_headers_off = geo.sample_headers_off;
    header_->event_cells_off = geo.event_cells_off;
    header_->sample_cells_off = geo.sample_cells_off;
    header_->telemetry_off = geo.telemetry_off;
    header_->crash_off = geo.crash_off;
    std::snprintf(header_->label, sizeof(header_->label), "%s",
                  opts.label.c_str());
    header_->heartbeat_interval_ms = opts.heartbeat_ms == 0
                                         ? 1
                                         : opts.heartbeat_ms;
    // The mapping is fresh zero pages, so placement-new of the atomics in
    // the ring headers / mirror / crash region is value-preserving; doing
    // it anyway keeps the object model honest.
    event_headers_ = new (base_ + geo.event_headers_off)
        RingHeader[geo.ring_count]{};
    sample_headers_ = new (base_ + geo.sample_headers_off)
        RingHeader[geo.ring_count]{};
    new (base_ + geo.event_cells_off)
        RingCell[static_cast<std::size_t>(geo.ring_count) *
                 geo.event_capacity]{};
    new (base_ + geo.sample_cells_off)
        RingCell[static_cast<std::size_t>(geo.ring_count) *
                 geo.sample_capacity]{};
    mirror_ = new (base_ + geo.telemetry_off) TelemetryMirror{};
    crash_ = new (base_ + geo.crash_off) CrashRegion{};
    crash_text_ = base_ + geo.crash_off + sizeof(CrashRegion);
    event_mask_ = geo.event_capacity - 1;
    sample_mask_ = geo.sample_capacity - 1;

    // Everything a reader needs is in place before ready flips, and the
    // first snapshot exists before the segment has a name: a producer
    // SIGKILLed before its first beat still leaves one to salvage.
    header_->producer_state.store(
        static_cast<std::uint32_t>(ProducerState::kActive),
        std::memory_order_release);
    header_->heartbeat_ns.store(SteadyClock::now(), std::memory_order_release);
    header_->ready.store(1, std::memory_order_release);
    refresh_totals();
    mirror_telemetry();
    write_snapshot();
  }

  std::uint32_t ring_for(int tid) const noexcept {
    if (tid < 0) return 0;
    const auto t = static_cast<std::uint32_t>(tid);
    return t < geo_.ring_count ? t : geo_.ring_count - 1;
  }

  RingCell* event_cells(std::uint32_t ring) noexcept {
    return reinterpret_cast<RingCell*>(base_ + geo_.event_cells_off) +
           static_cast<std::size_t>(ring) * geo_.event_capacity;
  }

  RingCell* sample_cells(std::uint32_t ring) noexcept {
    return reinterpret_cast<RingCell*>(base_ + geo_.sample_cells_off) +
           static_cast<std::size_t>(ring) * geo_.sample_capacity;
  }

  void refresh_totals() noexcept {
    std::uint64_t events = 0;
    std::uint64_t samples = 0;
    for (std::uint32_t r = 0; r < geo_.ring_count; ++r) {
      events += event_headers_[r].tail.load(std::memory_order_relaxed);
      samples += sample_headers_[r].tail.load(std::memory_order_relaxed);
    }
    header_->events_published.store(events, std::memory_order_release);
    header_->samples_published.store(samples, std::memory_order_release);
  }

  void mirror_telemetry() noexcept {
    const telemetry::MetricsView view = telemetry::metrics();
    mirror_->version.fetch_add(1, std::memory_order_acq_rel);  // odd
    // Seam sits inside the odd window on purpose: a hook that parks here
    // models a producer frozen mid-write, which readers must report torn.
    ORCA_FAULT_POINT(kShmMirror);
    const std::size_t nc =
        std::min(telemetry::kCounterCount, kMirrorCounterCap);
    const std::size_t ng = std::min(telemetry::kGaugeCount, kMirrorGaugeCap);
    mirror_->counter_count.store(nc, std::memory_order_relaxed);
    mirror_->gauge_count.store(ng, std::memory_order_relaxed);
    for (std::size_t i = 0; i < nc; ++i) {
      mirror_->counters[i].store(view.counters[i], std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < ng; ++i) {
      mirror_->gauges[i].store(view.gauges[i], std::memory_order_relaxed);
    }
    mirror_->version.fetch_add(1, std::memory_order_release);  // even
  }

  /// Rolling live snapshot: what a SIGKILLed producer leaves behind.
  void write_snapshot() noexcept {
    CrashRegion* cr = crash_;
    if (cr->kind.load(std::memory_order_acquire) == kCrashPostmortem) return;
    cr->version.fetch_add(1, std::memory_order_acq_rel);  // odd
    cr->kind.store(kCrashSnapshot, std::memory_order_release);
    TextCursor t{crash_text_, geo_.crash_capacity};
    t.str("ORCA_SHM_CRASH v1\n");
    t.kv("postmortem", 0);
    fill_crash_body(t);
    cr->length.store(t.len, std::memory_order_release);
    cr->ns.store(SteadyClock::now(), std::memory_order_release);
    cr->version.fetch_add(1, std::memory_order_release);  // even
  }

  void fill_crash_body(TextCursor& t) noexcept {
    t.kv("pid", static_cast<unsigned long long>(header_->owner_pid));
    t.kv("beats", header_->heartbeat_beats.load(std::memory_order_relaxed));
    t.kv("events_published",
         header_->events_published.load(std::memory_order_relaxed));
    t.kv("samples_published",
         header_->samples_published.load(std::memory_order_relaxed));
    t.kv("uptime_ns", SteadyClock::now() - header_->created_ns);
  }

  void heartbeat_loop() {
    std::unique_lock lk(hb_mu_);
    const auto interval =
        std::chrono::milliseconds(header_->heartbeat_interval_ms);
    while (!hb_stop_) {
      hb_cv_.wait_for(lk, interval, [this] { return hb_stop_; });
      if (hb_stop_) break;
      ORCA_FAULT_POINT(kHeartbeat);
      refresh_totals();
      mirror_telemetry();
      write_snapshot();
      header_->heartbeat_beats.fetch_add(1, std::memory_order_relaxed);
      header_->heartbeat_ns.store(SteadyClock::now(),
                                  std::memory_order_release);
      // The sense flip is the liveness signal proper: readers watch for
      // the *change*, so producer and reader clocks never meet.
      header_->heartbeat_sense.fetch_xor(1, std::memory_order_release);
    }
  }

  std::string name_;
  Geometry geo_;
  char* base_ = nullptr;
  SegmentHeader* header_ = nullptr;
  RingHeader* event_headers_ = nullptr;
  RingHeader* sample_headers_ = nullptr;
  TelemetryMirror* mirror_ = nullptr;
  CrashRegion* crash_ = nullptr;
  char* crash_text_ = nullptr;
  std::uint64_t event_mask_ = 0;
  std::uint64_t sample_mask_ = 0;

  std::thread heartbeat_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;
};

namespace detail {

std::atomic<ShmExporter*> g_exporter{nullptr};

void publish_event(ShmExporter* e, int tid, int event) noexcept {
  e->publish_event(tid, event);
}

void publish_sample(ShmExporter* e, int tid, int state,
                    std::uint64_t region) noexcept {
  e->publish_sample(tid, state, region);
}

}  // namespace detail

namespace {

std::mutex g_arm_mu;
int g_arm_count = 0;
/// One-shot gate for the crash postmortem: the handler may race a second
/// crashing thread, and a postmortem must never be written twice.
std::atomic<bool> g_postmortem_done{false};

}  // namespace

bool arm(const ExporterOptions& opts) {
  std::scoped_lock lk(g_arm_mu);
  if (g_arm_count > 0) {
    ++g_arm_count;
    return true;
  }
  ShmExporter* e = ShmExporter::create(opts);
  if (e == nullptr) return false;
  g_arm_count = 1;
  g_postmortem_done.store(false, std::memory_order_release);
  detail::g_exporter.store(e, std::memory_order_release);
  return true;
}

void disarm() {
  ShmExporter* dying = nullptr;
  {
    std::scoped_lock lk(g_arm_mu);
    if (g_arm_count == 0) return;
    if (--g_arm_count > 0) return;
    dying = detail::g_exporter.exchange(nullptr, std::memory_order_acq_rel);
  }
  // Hooks in flight may still hold the old pointer for a few instructions;
  // they complete against a mapping we only drop below. The window between
  // the exchange and the last concurrent publish is covered by the same
  // quiescence argument as telemetry disarm: the runtime destructor joins
  // its workers before calling this, so no instrumented thread survives.
  dying->finalize();
  delete dying;
}

std::string armed_segment_name() {
  ShmExporter* e = detail::g_exporter.load(std::memory_order_acquire);
  return e == nullptr ? std::string() : e->name();
}

std::string default_segment_name(const std::string& prefix) {
  static std::atomic<unsigned> seq{0};
  return prefix + "." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed) + 1);
}

void crash_postmortem(int fd) noexcept {
  ShmExporter* e = detail::g_exporter.load(std::memory_order_acquire);
  if (e == nullptr) return;
  bool expected = false;
  if (!g_postmortem_done.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
    return;
  }
  e->write_postmortem();
  if (fd >= 0) {
    // Mirror a breadcrumb into the regular crash dump so a reader of the
    // file knows a richer shm postmortem exists.
    const char* line = "shm_postmortem 1\n";
    (void)!::write(fd, line, std::strlen(line));
  }
}

std::size_t cleanup_stale_segments(const std::string& prefix) {
  std::size_t removed = 0;
  for (const SegmentName& seg : discover_segments(prefix)) {
    if (seg.pid <= 0) continue;
    if (::kill(static_cast<pid_t>(seg.pid), 0) == 0 || errno != ESRCH) {
      continue;  // owner alive (or undeterminable): not ours to reap
    }
    if (::shm_unlink(("/" + seg.name).c_str()) == 0) ++removed;
  }
  return removed;
}

}  // namespace orca::shm
