#include "shm/reader.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "shm/validate.hpp"
#include "testing/fault_injection.hpp"

namespace orca::shm {

std::vector<SegmentName> discover_segments(const std::string& prefix) {
  std::vector<SegmentName> out;
  if (prefix.empty()) return out;
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return out;
  const std::string want = prefix + ".";
  while (struct dirent* ent = ::readdir(dir)) {
    const std::string name(ent->d_name);
    if (name.rfind(want, 0) != 0) continue;
    const std::string rest = name.substr(want.size());
    const std::size_t dot = rest.find('.');
    const std::string pid_text =
        dot == std::string::npos ? rest : rest.substr(0, dot);
    if (pid_text.empty() ||
        pid_text.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    SegmentName seg;
    seg.name = name;
    seg.pid = std::strtoll(pid_text.c_str(), nullptr, 10);
    out.push_back(std::move(seg));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end(),
            [](const SegmentName& a, const SegmentName& b) {
              return a.name < b.name;
            });
  return out;
}

const char* attach_error_kind_name(AttachError::Kind kind) noexcept {
  switch (kind) {
    case AttachError::Kind::kNone: return "none";
    case AttachError::Kind::kNotFound: return "not-found";
    case AttachError::Kind::kCorrupt: return "corrupt";
    case AttachError::Kind::kIo: return "io";
  }
  return "?";
}

namespace {

std::unique_ptr<SegmentReader> set_error(AttachError* err,
                                         AttachError::Kind kind,
                                         const std::string& text) {
  if (err != nullptr) {
    err->kind = kind;
    err->message = text;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<SegmentReader> SegmentReader::attach(const std::string& name,
                                                     AttachError* err) {
  ORCA_FAULT_POINT(kShmAttach);
  if (testing::FaultInjector::alloc_fails(testing::FaultPoint::kShmAttach)) {
    return set_error(err, AttachError::Kind::kIo, "injected attach fault");
  }
  // Read-only, always: readers never store into the segment. Once the fd
  // and the mapping belong to `reader`, every early return releases them.
  const int fd = ::shm_open(("/" + name).c_str(), O_RDONLY, 0);
  if (fd < 0) {
    const int e = errno;
    return set_error(err,
                     e == ENOENT ? AttachError::Kind::kNotFound
                                 : AttachError::Kind::kIo,
                     "shm_open failed: " + std::string(std::strerror(e)));
  }
  auto reader = std::unique_ptr<SegmentReader>(new SegmentReader());
  reader->name_ = name;
  reader->fd_ = fd;  // kept for revalidate(): detects later truncation
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return set_error(err, AttachError::Kind::kIo,
                     "fstat failed: " + std::string(std::strerror(errno)));
  }
  // The exporter names a segment only once it is complete, so a short
  // file or ready == 0 below is a foreign creator, not a producer that is
  // still starting up: corrupt, not worth a retry.
  if (st.st_size < static_cast<off_t>(sizeof(SegmentHeader))) {
    return set_error(err, AttachError::Kind::kCorrupt,
                     "segment smaller than its header");
  }
  const auto mapped = static_cast<std::uint64_t>(st.st_size);
  void* base = ::mmap(nullptr, mapped, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    return set_error(err, AttachError::Kind::kIo,
                     "mmap failed: " + std::string(std::strerror(errno)));
  }
  reader->base_ = static_cast<const char*>(base);
  reader->mapped_bytes_ = mapped;
  const SegmentHeader* header = reader->header();
  // The acquire on `ready` orders every header read below after it.
  if (header->ready.load(std::memory_order_acquire) == 0) {
    return set_error(err, AttachError::Kind::kCorrupt,
                     "ready flag unset (incomplete or not an ORCA segment)");
  }
  // Deep validation: magic, version and every derived offset
  // bounds-checked against the mapping before any cursor is created
  // (validate.hpp).
  std::string why;
  if (!validate_segment(*header, mapped, &why)) {
    return set_error(err, AttachError::Kind::kCorrupt, why);
  }
  // Close the attach/truncate race: everything above read pages that a
  // concurrent ftruncate could have pulled out from under us. Re-check
  // the file size now that the geometry is captured; only a hostile or
  // dying-loudly creator resizes a named segment.
  struct stat st2 {};
  if (::fstat(fd, &st2) != 0 ||
      static_cast<std::uint64_t>(st2.st_size) < mapped) {
    return set_error(err, AttachError::Kind::kCorrupt,
                     "segment resized during attach");
  }

  reader->geom_.ring_count = header->ring_count;
  reader->geom_.event_capacity = header->event_capacity;
  reader->geom_.sample_capacity = header->sample_capacity;
  reader->geom_.crash_capacity = header->crash_capacity;
  reader->geom_.event_headers_off = header->event_headers_off;
  reader->geom_.sample_headers_off = header->sample_headers_off;
  reader->geom_.event_cells_off = header->event_cells_off;
  reader->geom_.sample_cells_off = header->sample_cells_off;
  reader->geom_.telemetry_off = header->telemetry_off;
  reader->geom_.crash_off = header->crash_off;
  // Clamp the advertised heartbeat so a hostile interval cannot push the
  // liveness budget out to "never suspect me".
  reader->geom_.heartbeat_interval_ms =
      std::clamp<std::uint32_t>(header->heartbeat_interval_ms, 1, 60000);
  reader->label_.assign(header->label,
                        ::strnlen(header->label, sizeof(header->label)));
  reader->owner_pid_ = header->owner_pid;
  reader->created_ns_ = header->created_ns;
  reader->event_cursors_.resize(header->ring_count);
  reader->sample_cursors_.resize(header->ring_count);
  return reader;
}

SegmentReader::~SegmentReader() {
  if (base_ != nullptr) {
    ::munmap(const_cast<char*>(base_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

bool SegmentReader::revalidate(std::string* why) const noexcept {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    if (why != nullptr) *why = "fstat on kept fd failed";
    return false;
  }
  if (static_cast<std::uint64_t>(st.st_size) < mapped_bytes_) {
    if (why != nullptr) {
      *why = "segment truncated to " + std::to_string(st.st_size) +
             " bytes (mapped " + std::to_string(mapped_bytes_) + ")";
    }
    return false;
  }
  return true;
}

std::uint64_t SegmentReader::events_published() const noexcept {
  return header()->events_published.load(std::memory_order_acquire);
}

std::uint64_t SegmentReader::samples_published() const noexcept {
  return header()->samples_published.load(std::memory_order_acquire);
}

ProducerState SegmentReader::producer_state() const noexcept {
  return static_cast<ProducerState>(
      header()->producer_state.load(std::memory_order_acquire));
}

Poll SegmentReader::poll_event(std::uint32_t ring, Record* out) noexcept {
  return ring_poll(*ring_header(geom_.event_headers_off, ring),
                   ring_cells(geom_.event_cells_off, ring,
                              geom_.event_capacity),
                   geom_.event_capacity - 1, geom_.event_capacity,
                   event_cursors_[ring], out);
}

Poll SegmentReader::poll_sample(std::uint32_t ring, Record* out) noexcept {
  return ring_poll(*ring_header(geom_.sample_headers_off, ring),
                   ring_cells(geom_.sample_cells_off, ring,
                              geom_.sample_capacity),
                   geom_.sample_capacity - 1, geom_.sample_capacity,
                   sample_cursors_[ring], out);
}

void SegmentReader::finalize_ring(std::uint32_t ring) noexcept {
  cursor_finalize(*ring_header(geom_.event_headers_off, ring),
                  event_cursors_[ring]);
  cursor_finalize(*ring_header(geom_.sample_headers_off, ring),
                  sample_cursors_[ring]);
}

std::uint64_t SegmentReader::total_read() const noexcept {
  std::uint64_t n = 0;
  for (const Cursor& c : event_cursors_) n += c.read;
  for (const Cursor& c : sample_cursors_) n += c.read;
  return n;
}

std::uint64_t SegmentReader::total_lost() const noexcept {
  std::uint64_t n = 0;
  for (const Cursor& c : event_cursors_) n += c.lost;
  for (const Cursor& c : sample_cursors_) n += c.lost;
  return n;
}

std::uint64_t SegmentReader::total_produced() const noexcept {
  std::uint64_t n = 0;
  for (std::uint32_t r = 0; r < geom_.ring_count; ++r) {
    n += ring_header(geom_.event_headers_off, r)
             ->tail.load(std::memory_order_acquire);
    n += ring_header(geom_.sample_headers_off, r)
             ->tail.load(std::memory_order_acquire);
  }
  return n;
}

Liveness SegmentReader::check_liveness(std::uint64_t now_ns, unsigned grace,
                                       std::uint64_t stall_deadline_ns)
    noexcept {
  const SegmentHeader* h = header();
  if (producer_state() == ProducerState::kFinalized) {
    return Liveness::kFinalized;
  }
  const std::uint32_t sense =
      h->heartbeat_sense.load(std::memory_order_acquire);
  if (last_flip_local_ns_ == 0 || sense != last_sense_) {
    last_sense_ = sense;
    last_flip_local_ns_ = now_ns;
    return Liveness::kAlive;
  }
  const std::uint64_t quiet = now_ns - last_flip_local_ns_;
  const std::uint64_t interval_ns =
      static_cast<std::uint64_t>(geom_.heartbeat_interval_ms) * 1000000ull;
  const std::uint64_t budget =
      std::max<std::uint64_t>(interval_ns * grace, 200000000ull);  // >=200ms
  const bool pid_gone =
      ::kill(static_cast<pid_t>(owner_pid_), 0) != 0 && errno == ESRCH;
  // Hard staleness deadline: a producer whose heart stopped this long ago
  // is not coming back on its own (SIGSTOP, swap thrash, wedged), even if
  // the kernel still lists the pid. The caller opts in (0 = off).
  if (stall_deadline_ns > 0 && quiet >= stall_deadline_ns) {
    return pid_gone ? Liveness::kDead : Liveness::kStalled;
  }
  if (quiet < budget) return Liveness::kAlive;
  // Pulse stopped. Only the kernel can confirm death: a SIGSTOPped or
  // swap-thrashed producer is late, not dead.
  if (pid_gone) return Liveness::kDead;
  return Liveness::kAlive;
}

MirrorSnapshot SegmentReader::telemetry_snapshot() const {
  const auto* m =
      reinterpret_cast<const TelemetryMirror*>(base_ + geom_.telemetry_off);
  MirrorSnapshot snap;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t v1 = m->version.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // writer active
    const std::uint64_t nc = std::min<std::uint64_t>(
        m->counter_count.load(std::memory_order_relaxed), kMirrorCounterCap);
    const std::uint64_t ng = std::min<std::uint64_t>(
        m->gauge_count.load(std::memory_order_relaxed), kMirrorGaugeCap);
    snap.counters.assign(nc, 0);
    snap.gauges.assign(ng, 0);
    for (std::uint64_t i = 0; i < nc; ++i) {
      snap.counters[i] = m->counters[i].load(std::memory_order_relaxed);
    }
    for (std::uint64_t i = 0; i < ng; ++i) {
      snap.gauges[i] = m->gauges[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (m->version.load(std::memory_order_relaxed) == v1) {
      snap.torn = false;
      return snap;
    }
  }
  // A producer frozen mid-write (crashed under the seqlock) never closes
  // the version; report what we copied, marked torn.
  snap.torn = true;
  return snap;
}

CrashSalvage SegmentReader::salvage_crash() const {
  const auto* cr =
      reinterpret_cast<const CrashRegion*>(base_ + geom_.crash_off);
  const char* text = base_ + geom_.crash_off + sizeof(CrashRegion);
  CrashSalvage out;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint64_t v1 = cr->version.load(std::memory_order_acquire);
    out.kind = cr->kind.load(std::memory_order_acquire);
    if (out.kind == kCrashEmpty) return out;
    const std::uint32_t len = std::min(
        cr->length.load(std::memory_order_acquire), geom_.crash_capacity);
    out.ns = cr->ns.load(std::memory_order_acquire);
    out.text.assign(text, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((v1 & 1) == 0 &&
        cr->version.load(std::memory_order_relaxed) == v1) {
      out.torn = false;
      return out;
    }
  }
  out.torn = true;  // producer died mid-snapshot: salvage is best-effort
  return out;
}

bool SegmentReader::unlink_segment() noexcept {
  return ::shm_unlink(("/" + name_).c_str()) == 0;
}

}  // namespace orca::shm
