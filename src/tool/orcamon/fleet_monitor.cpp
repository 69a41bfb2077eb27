#include "tool/orcamon/fleet_monitor.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "collector/api.h"
#include "collector/names.hpp"
#include "common/clock.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "pipeline/stage.hpp"
#include "shm/sigbus_guard.hpp"
#include "telemetry/telemetry.hpp"
#include "testing/fault_injection.hpp"

namespace orca::tool::orcamon {
namespace {

/// Drain batch per ring bank per pass for a live producer: bounded so one
/// chatty ring cannot starve the shard's other assignments.
constexpr int kLiveBatch = 1024;

/// Fleet-size cap. producers_ is reserved to this in the constructor so
/// push_back never reallocates: shard threads index the vector with only
/// a size snapshot taken under the lock, which is sound exactly because
/// the element storage never moves.
constexpr std::size_t kMaxProducers = 256;

/// Backoff doubling stops here: 50ms << 5 = 1.6s. Only kIo failures
/// (fd exhaustion, a failed mmap) back off; a segment is named only once
/// complete, so there is no start-up window to wait through.
constexpr unsigned kMaxBackoffShift = 5;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Short display name for an event code: "FORK", "THR_BEGIN_IDLE", ...
std::string event_display(std::int32_t code) {
  std::string_view full =
      collector::to_string(static_cast<OMP_COLLECTORAPI_EVENT>(code));
  if (full == "?") return "event-" + std::to_string(code);
  constexpr std::string_view kOmp = "OMP_EVENT_";
  constexpr std::string_view kOrca = "ORCA_EVENT_";
  if (full.substr(0, kOmp.size()) == kOmp) full.remove_prefix(kOmp.size());
  else if (full.substr(0, kOrca.size()) == kOrca)
    full.remove_prefix(kOrca.size());
  return std::string(full);
}

std::string state_display(std::int32_t code) {
  std::string_view full =
      collector::to_string(static_cast<OMP_COLLECTOR_API_THR_STATE>(code));
  if (full == "?") return "state-" + std::to_string(code);
  return std::string(full);
}

/// RAII release of a ring's busy latch.
struct BusyRelease {
  std::atomic<bool>& latch;
  ~BusyRelease() { latch.store(false, std::memory_order_release); }
};

}  // namespace

void MonitorOptions::apply_env() {
  attach_retry_ms = static_cast<unsigned>(
      env::long_or("ORCA_MON_ATTACH_RETRY_MS", attach_retry_ms, 1,
                   "milliseconds >= 1"));
  attach_retry_max = static_cast<unsigned>(
      env::long_or("ORCA_MON_ATTACH_RETRY_MAX", attach_retry_max, 1,
                   "attempts >= 1"));
  shard_stall_ms = static_cast<unsigned>(
      env::long_or("ORCA_MON_SHARD_STALL_MS", shard_stall_ms, 0,
                   "milliseconds (0 disables the watchdog)"));
  heartbeat_deadline_ms = static_cast<unsigned>(
      env::long_or("ORCA_MON_HEARTBEAT_DEADLINE_MS", heartbeat_deadline_ms, 0,
                   "milliseconds (0 = pid-exit only)"));
}

FleetMonitor::FleetMonitor(MonitorOptions opts) : opts_(std::move(opts)) {
  if (opts_.shards == 0) opts_.shards = 1;
  producers_.reserve(kMaxProducers);
  // Shared tail, downstream-first: the terminal branches, then the fanout
  // every producer's tag stage feeds.
  region_agg_ = pipeline::aggregate<FleetEvent>(
      "region-durations",
      [](const FleetEvent& e) { return static_cast<std::uint64_t>(e.pid); },
      [](const FleetEvent& e) { return e.arg; });
  auto spans = pipeline::filter<FleetEvent>(
      "join-spans",
      [](const FleetEvent& e) {
        return !e.sample && e.code == OMP_EVENT_JOIN && e.arg > 0;
      },
      region_agg_);
  trace_ = pipeline::collect<FleetEvent>("trace", opts_.max_trace_events);
  auto counter = pipeline::sink<FleetEvent>(
      "fleet-count", [this](const FleetEvent&) {
        events_seen_.fetch_add(1, std::memory_order_relaxed);
      });
  tail_ = pipeline::fanout<FleetEvent>("fleet", {spans, trace_, counter});
}

FleetMonitor::~FleetMonitor() {
  shards_stop_.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  // Threads the watchdog retired unwedge (if ever) by observing either
  // their bumped generation or shards_stop_; test hooks must release by
  // teardown or this join would hang — same contract as every other
  // blocking-hook seam in the suite.
  for (std::thread& t : retired_threads_) {
    if (t.joinable()) t.join();
  }
}

pipeline::StagePtr<RawRecord> FleetMonitor::build_head(std::int64_t pid,
                                                       Producer* /*p*/) {
  const std::string tag = std::to_string(pid);
  auto stamp = pipeline::map<FleetEvent>(
      "tag:" + tag,
      [pid](const FleetEvent& e) {
        FleetEvent out = e;
        out.pid = pid;
        return out;
      },
      tail_);
  return pipeline::map<RawRecord>(
      "decode:" + tag,
      [](const RawRecord& r) {
        FleetEvent ev;
        ev.ns = r.rec.ns;
        ev.tid = r.rec.tid;
        ev.code = r.rec.event;
        ev.arg = r.rec.arg;
        ev.sample = r.sample;
        return ev;
      },
      stamp);
}

void FleetMonitor::record_attach_quarantine(const std::string& name,
                                            std::int64_t pid,
                                            const std::string& reason) {
  {
    std::scoped_lock lk(mu_);
    seen_names_[name] = true;  // never retried, never dereferenced
    pending_.erase(name);
    quarantines_.push_back({name, pid, reason, /*attach_phase=*/true});
  }
  std::fprintf(stderr, "orcamon: quarantined %s (pid %lld) at attach: %s\n",
               name.c_str(), static_cast<long long>(pid), reason.c_str());
}

void FleetMonitor::attach_new_segments(std::uint64_t now_ns) {
  const std::vector<shm::SegmentName> found =
      shm::discover_segments(opts_.prefix);
  for (const shm::SegmentName& seg : found) {
    {
      std::scoped_lock lk(mu_);
      if (seen_names_.count(seg.name) != 0) continue;
      const auto it = pending_.find(seg.name);
      if (it != pending_.end() && now_ns < it->second.next_ns) continue;
    }
    if (seg.pid == static_cast<std::int64_t>(::getpid())) continue;
    shm::AttachError err;
    auto reader = shm::SegmentReader::attach(seg.name, &err);
    if (reader) {
      auto p = std::make_unique<Producer>();
      p->ring_count = reader->ring_count();
      p->rings = std::make_unique<RingState[]>(p->ring_count);
      p->head = build_head(reader->owner_pid(), p.get());
      p->reader = std::move(reader);
      std::scoped_lock lk(mu_);
      pending_.erase(seg.name);
      if (producers_.size() >= kMaxProducers) break;  // fleet full
      p->index = producers_.size();
      seen_names_[seg.name] = true;
      producers_.push_back(std::move(p));
      continue;
    }
    switch (err.kind) {
      case shm::AttachError::Kind::kNotFound: {
        // Unlinked between discovery and open; nothing to wait for.
        std::scoped_lock lk(mu_);
        pending_.erase(seg.name);
        break;
      }
      case shm::AttachError::Kind::kCorrupt:
        // Not a complete, valid segment: retrying cannot help and the
        // mapping was already dropped. One quarantine row, done forever.
        record_attach_quarantine(seg.name, seg.pid, err.message);
        break;
      default: {  // kIo: jittered exponential backoff
        unsigned attempts = 0;
        {
          std::scoped_lock lk(mu_);
          PendingAttach& pa = pending_[seg.name];
          pa.pid = seg.pid;
          attempts = ++pa.attempts;
          if (attempts < opts_.attach_retry_max) {
            const unsigned shift =
                std::min(attempts - 1, kMaxBackoffShift);
            const std::uint64_t base_ms =
                static_cast<std::uint64_t>(
                    std::max(1u, opts_.attach_retry_ms))
                << shift;
            // Deterministic jitter in [base/2, 3*base/2): splittable
            // stream keyed on the name so a fleet of stragglers does not
            // retry in lockstep.
            const std::uint64_t jitter =
                SplitMix64::at(std::hash<std::string>{}(seg.name),
                               attempts) %
                (base_ms + 1);
            pa.next_ns = now_ns + (base_ms / 2 + jitter) * 1000000ull;
          }
        }
        if (attempts >= opts_.attach_retry_max) {
          record_attach_quarantine(
              seg.name, seg.pid,
              "attach retries exhausted (" + std::to_string(attempts) +
                  "x, last " +
                  std::string(shm::attach_error_kind_name(err.kind)) +
                  "): " + err.message);
        }
        break;
      }
    }
  }
  // Names that vanished from /dev/shm take their retry state with them.
  std::scoped_lock lk(mu_);
  for (auto it = pending_.begin(); it != pending_.end();) {
    const bool present =
        std::any_of(found.begin(), found.end(),
                    [&](const shm::SegmentName& s) {
                      return s.name == it->first;
                    });
    it = present ? std::next(it) : pending_.erase(it);
  }
}

void FleetMonitor::quarantine_producer(Producer& p,
                                       const std::string& reason) {
  int expected = p.phase.load(std::memory_order_acquire);
  for (;;) {  // first reporter wins; later trips are the same event
    if (expected == kQuarantined) return;
    if (p.phase.compare_exchange_weak(expected, kQuarantined,
                                      std::memory_order_acq_rel)) {
      break;
    }
  }
  // Snapshot what the books can still say. The fallback keeps them
  // trivially honest: if the produced count itself is unreadable, what we
  // read + what we lost is the only total we can vouch for.
  std::uint64_t produced = p.reader->total_read() + p.reader->total_lost();
  shm::with_sigbus_guard([&] {
    const std::uint64_t v = p.reader->total_produced();
    produced = v;
  });
  shm::CrashSalvage salvage;
  const bool salvage_ok =
      shm::with_sigbus_guard([&] { salvage = p.reader->salvage_crash(); });
  {
    std::scoped_lock lk(mu_);
    p.quarantine_reason = reason;
    p.produced_at_quarantine = produced;
    if (salvage_ok) p.salvage = salvage;
    p.salvaged = true;  // never touch the mapping for this producer again
    quarantines_.push_back({p.reader->name(), p.reader->owner_pid(), reason,
                            /*attach_phase=*/false});
  }
  std::fprintf(stderr, "orcamon: quarantined %s (pid %lld): %s\n",
               p.reader->name().c_str(),
               static_cast<long long>(p.reader->owner_pid()),
               reason.c_str());
}

void FleetMonitor::update_liveness(std::uint64_t now_ns) {
  std::size_t n;
  {
    std::scoped_lock lk(mu_);
    n = producers_.size();
  }
  const std::uint64_t stall_deadline_ns =
      static_cast<std::uint64_t>(opts_.heartbeat_deadline_ms) * 1000000ull;
  for (std::size_t i = 0; i < n; ++i) {
    Producer& p = *producers_[i];
    const int phase = p.phase.load(std::memory_order_acquire);
    if (phase == kDone || phase == kQuarantined) continue;
    // Cheap structural re-check first: an fstat never faults, and a
    // shrunken file means every mapped load past the new EOF is a SIGBUS
    // waiting for a shard thread.
    std::string why;
    if (!p.reader->revalidate(&why)) {
      quarantine_producer(p, why);
      continue;
    }
    if (phase != kActive) continue;
    shm::Liveness lv = shm::Liveness::kAlive;
    const bool ok = shm::with_sigbus_guard([&] {
      lv = p.reader->check_liveness(now_ns, opts_.liveness_grace,
                                    stall_deadline_ns);
    });
    if (!ok) {
      quarantine_producer(p, "SIGBUS during liveness check (truncated)");
      continue;
    }
    switch (lv) {
      case shm::Liveness::kAlive:
        break;
      case shm::Liveness::kFinalized:
        p.finalized.store(true, std::memory_order_release);
        p.phase.store(kDraining, std::memory_order_release);
        break;
      case shm::Liveness::kStalled:
        // Past the hard deadline with a live pid: drain it like a death —
        // the books close on whatever was published — but report it as
        // stalled so a SIGCONT'd survivor reads as what it was.
        p.stalled.store(true, std::memory_order_release);
        [[fallthrough]];
      case shm::Liveness::kDead:
        p.dead.store(true, std::memory_order_release);
        p.phase.store(kDraining, std::memory_order_release);
        break;
    }
  }
}

bool FleetMonitor::drain_ring(Producer& p, std::uint32_t ring) {
  RingState& state = p.rings[ring];
  bool expected = false;
  if (!state.busy.compare_exchange_strong(expected, true,
                                          std::memory_order_acquire)) {
    return false;  // the watchdog's replacement (or a late ghost) owns it
  }
  BusyRelease release{state.busy};
  if (state.done) return false;
  const int phase = p.phase.load(std::memory_order_acquire);
  if (phase == kQuarantined) return false;
  const bool draining = phase != kActive;
  bool progress = false;
  shm::Record rec;
  for (int bank = 0; bank < 2; ++bank) {
    const bool sample = bank == 1;
    int budget = draining ? -1 : kLiveBatch;
    while (budget != 0) {
      if (budget > 0) --budget;
      // Only the poll dereferences the mapping, so only the poll sits
      // inside the guard: fork bookkeeping and the pipeline push below
      // take locks, which guarded code must not.
      shm::Poll poll = shm::Poll::kEmpty;
      const bool ok = shm::with_sigbus_guard([&] {
        poll = sample ? p.reader->poll_sample(ring, &rec)
                      : p.reader->poll_event(ring, &rec);
      });
      if (!ok) {
        quarantine_producer(p, "SIGBUS while draining ring " +
                                   std::to_string(ring) +
                                   " (segment truncated)");
        return progress;
      }
      if (poll == shm::Poll::kEmpty) break;
      progress = true;
      if (poll == shm::Poll::kLost) continue;  // loss already booked
      RawRecord raw{rec, sample};
      if (!sample) {
        // Region edges: FORK opens, JOIN closes and carries the duration
        // downstream in arg (the ring's arg field is unused for events).
        // FORK and JOIN may surface on different rings, hence the lock.
        if (rec.event == OMP_EVENT_FORK) {
          std::scoped_lock lk(p.fork_mu);
          p.open_forks[rec.tid] = rec.ns;
        } else if (rec.event == OMP_EVENT_JOIN) {
          std::scoped_lock lk(p.fork_mu);
          auto it = p.open_forks.find(rec.tid);
          if (it != p.open_forks.end()) {
            if (rec.ns >= it->second) raw.rec.arg = rec.ns - it->second;
            p.open_forks.erase(it);
          }
        }
      }
      p.head->push(raw);
    }
  }
  if (draining && !progress) {
    // Two empty banks on a dead/finalized producer: close this ring's
    // books (whatever the tail claims beyond the cursor becomes loss).
    const bool ok = shm::with_sigbus_guard([&] {
      p.reader->finalize_ring(ring);
    });
    if (!ok) {
      quarantine_producer(p, "SIGBUS while closing ring " +
                                 std::to_string(ring) +
                                 " (segment truncated)");
      return progress;
    }
    state.done = true;
    const std::uint32_t done =
        p.rings_done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (done == p.ring_count) {
      p.phase.store(kDone, std::memory_order_release);
    }
    return true;
  }
  return progress;
}

void FleetMonitor::shard_loop(unsigned shard, std::uint64_t generation) {
  Shard& self = *shards_[shard];
  while (!shards_stop_.load(std::memory_order_acquire) &&
         self.generation.load(std::memory_order_acquire) == generation) {
    // The beat is the watchdog's only signal: it advances even on idle
    // passes, so "beat frozen" means this thread is wedged, not bored.
    self.beat.fetch_add(1, std::memory_order_relaxed);
    ORCA_FAULT_POINT(kShardDrain);
    bool progress = false;
    std::size_t n;
    {
      std::scoped_lock lk(mu_);
      n = producers_.size();
    }
    for (std::size_t i = 0; i < n; ++i) {
      Producer& p = *producers_[i];
      const int phase = p.phase.load(std::memory_order_acquire);
      if (phase == kDone || phase == kQuarantined) continue;
      for (std::uint32_t r = 0; r < p.ring_count; ++r) {
        if ((i + r) % opts_.shards != shard) continue;
        progress |= drain_ring(p, r);
      }
    }
    if (!progress) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts_.poll_ms == 0 ? 1 : opts_.poll_ms));
    }
  }
}

void FleetMonitor::check_shard_watchdog(std::uint64_t now_ns) {
  if (opts_.shard_stall_ms == 0) return;
  const std::uint64_t stall_ns =
      static_cast<std::uint64_t>(opts_.shard_stall_ms) * 1000000ull;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    const std::uint64_t beat = sh.beat.load(std::memory_order_acquire);
    if (sh.last_change_ns == 0 || beat != sh.last_beat) {
      sh.last_beat = beat;
      sh.last_change_ns = now_ns;
      continue;
    }
    if (now_ns - sh.last_change_ns < stall_ns) continue;
    // Wedged. Retire the thread (it exits when it next runs and sees the
    // bumped generation; until then the per-ring busy latches fence it
    // off the cursors) and restart the same ring assignment.
    const std::uint64_t next_gen =
        sh.generation.fetch_add(1, std::memory_order_acq_rel) + 1;
    {
      std::scoped_lock lk(mu_);
      retired_threads_.push_back(std::move(sh.thread));
    }
    sh.thread = std::thread([this, s, next_gen] {
      shard_loop(static_cast<unsigned>(s), next_gen);
    });
    watchdog_restarts_.fetch_add(1, std::memory_order_release);
    sh.last_beat = sh.beat.load(std::memory_order_acquire);
    sh.last_change_ns = now_ns;  // fresh grace period for the replacement
    std::fprintf(stderr,
                 "orcamon: shard %zu drain thread wedged for %u ms; "
                 "replaced it (same ring assignment)\n",
                 s, opts_.shard_stall_ms);
  }
}

std::size_t FleetMonitor::run() {
  const std::uint64_t start_ns = SteadyClock::now();
  shards_stop_.store(false, std::memory_order_release);
  shards_.clear();
  shards_.reserve(opts_.shards);
  for (unsigned s = 0; s < opts_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (unsigned s = 0; s < opts_.shards; ++s) {
    shards_[s]->thread = std::thread([this, s] { shard_loop(s, 0); });
  }

  std::uint64_t last_report_ns = start_ns;
  const auto report_every =
      static_cast<std::uint64_t>(opts_.report_interval_s * 1e9);
  for (;;) {
    const std::uint64_t now = SteadyClock::now();
    attach_new_segments(now);
    update_liveness(now);
    check_shard_watchdog(now);

    // Salvage + reap producers whose shards closed the books. Done from
    // this thread so unlink/salvage happen exactly once. Quarantined
    // producers were snapshotted on the way in and count as settled.
    std::size_t n, done = 0;
    {
      std::scoped_lock lk(mu_);
      n = producers_.size();
    }
    for (std::size_t i = 0; i < n; ++i) {
      Producer& p = *producers_[i];
      const int phase = p.phase.load(std::memory_order_acquire);
      if (phase == kQuarantined) {
        ++done;
        continue;
      }
      if (phase != kDone) continue;
      ++done;
      if (!p.salvaged) {
        shm::with_sigbus_guard([&] { p.salvage = p.reader->salvage_crash(); });
        if (p.dead.load(std::memory_order_acquire) && opts_.unlink_dead) {
          p.reader->unlink_segment();
        }
        p.salvaged = true;
      }
    }

    if (report_every > 0 && now - last_report_ns >= report_every) {
      last_report_ns = now;
      emit_report(false);
    }

    if (stop_.load(std::memory_order_acquire)) break;
    if (opts_.duration_s > 0 &&
        static_cast<double>(now - start_ns) > opts_.duration_s * 1e9) {
      break;
    }
    if (opts_.exit_when_idle && n > 0 && done == n) break;

    std::this_thread::sleep_for(
        std::chrono::milliseconds(opts_.discover_ms == 0 ? 10
                                                         : opts_.discover_ms));
  }

  shards_stop_.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) sh->thread.join();
  }
  tail_->flush();

  // Close the books on anything still open (stopped mid-flight).
  std::size_t n;
  {
    std::scoped_lock lk(mu_);
    n = producers_.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    Producer& p = *producers_[i];
    if (!p.salvaged) {
      shm::with_sigbus_guard([&] { p.salvage = p.reader->salvage_crash(); });
      p.salvaged = true;
    }
  }

  if (!opts_.trace_out.empty()) write_trace(opts_.trace_out);
  emit_report(true);
  return n;
}

std::size_t FleetMonitor::attached_count() const {
  std::scoped_lock lk(mu_);
  return producers_.size();
}

std::vector<QuarantineRecord> FleetMonitor::quarantines() const {
  std::scoped_lock lk(mu_);
  return quarantines_;
}

std::vector<ProducerInfo> FleetMonitor::producers() const {
  std::scoped_lock lk(mu_);
  std::vector<ProducerInfo> out;
  out.reserve(producers_.size());
  for (const auto& pp : producers_) {
    const Producer& p = *pp;
    const int phase = p.phase.load(std::memory_order_acquire);
    ProducerInfo info;
    info.name = p.reader->name();
    info.label = p.reader->label();
    info.pid = p.reader->owner_pid();
    info.finalized = p.finalized.load(std::memory_order_acquire);
    info.dead = p.dead.load(std::memory_order_acquire);
    info.stalled = p.stalled.load(std::memory_order_acquire);
    info.drained = phase == kDone;
    info.quarantined = phase == kQuarantined;
    info.quarantine_reason = p.quarantine_reason;
    // Cursors live in the reader object, not the mapping: always safe.
    info.read = p.reader->total_read();
    info.lost = p.reader->total_lost();
    if (info.quarantined) {
      info.produced = p.produced_at_quarantine;
      info.salvage = p.salvage;
      out.push_back(std::move(info));
      continue;
    }
    // Live mapping reads, guarded: a truncate racing this report must not
    // kill the reporter. The fallback books balance by construction.
    info.produced = info.read + info.lost;
    shm::with_sigbus_guard([&] {
      const std::uint64_t v = p.reader->total_produced();
      info.produced = v;
    });
    if (p.salvaged) {
      info.salvage = p.salvage;
    } else {
      shm::with_sigbus_guard([&] { info.salvage = p.reader->salvage_crash(); });
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::string FleetMonitor::render_report() const {
  std::ostringstream os;
  const std::vector<ProducerInfo> fleet = producers();
  const std::vector<QuarantineRecord> quarantined = quarantines();
  std::size_t alive = 0, finalized = 0, dead = 0, inmates = 0;
  for (const ProducerInfo& p : fleet) {
    if (p.quarantined) ++inmates;
    else if (p.dead) ++dead;
    else if (p.finalized) ++finalized;
    else ++alive;
  }
  os << "orcamon fleet report: " << fleet.size() << " producer(s) (" << alive
     << " alive, " << finalized << " finalized, " << dead << " dead, "
     << inmates << " quarantined), " << events_seen() << " records merged, "
     << trace_->size() << " retained for trace\n";
  for (const ProducerInfo& p : fleet) {
    os << "  pid " << p.pid << " [" << p.label << "] "
       << (p.quarantined ? "quarantined"
           : p.dead      ? (p.stalled ? "stalled" : "dead")
           : p.finalized ? "finalized"
                         : "alive")
       << (p.drained ? ", drained" : "") << ": produced=" << p.produced
       << " read=" << p.read << " lost=" << p.lost;
    if (p.drained && p.produced != p.read + p.lost) {
      os << " (books OPEN)";  // should never print once drained
    }
    if (p.quarantined) os << " — " << p.quarantine_reason;
    os << "\n";
    if (p.salvage.kind != shm::kCrashEmpty) {
      os << "    crash section ("
         << (p.salvage.kind == shm::kCrashPostmortem ? "postmortem" : "snapshot")
         << (p.salvage.torn ? ", torn" : "") << "): "
         << p.salvage.text.size() << " bytes\n";
    }
  }
  // Attach-phase quarantines have no producer row of their own.
  for (const QuarantineRecord& q : quarantined) {
    if (!q.attach_phase) continue;
    os << "  segment " << q.name << " (pid " << q.pid
       << ") quarantined at attach — " << q.reason << "\n";
  }
  const std::vector<pipeline::AggregateRow> rows = region_agg_->snapshot();
  if (!rows.empty()) {
    os << "parallel-region durations by pid (ns):\n"
       << pipeline::render_aggregate(rows, "pid", "ns");
  }
  os << pipeline::render_stats(pipeline::Pipeline<FleetEvent>(tail_).stats());
  return os.str();
}

void FleetMonitor::emit_report(bool final_report) {
  const std::string text = render_report();
  if (opts_.report_out.empty()) {
    std::fputs(text.c_str(), stdout);
    std::fflush(stdout);
    return;
  }
  // Periodic reports overwrite in place; readers always see a whole file.
  const std::string tmp = opts_.report_out + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  std::fputs(text.c_str(), f);
  std::fclose(f);
  std::rename(tmp.c_str(), opts_.report_out.c_str());
  (void)final_report;
}

bool FleetMonitor::write_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<FleetEvent> events =
      trace_->sorted([](const FleetEvent& a, const FleetEvent& b) {
        return a.ns < b.ns;
      });
  std::uint64_t base = 0;
  for (const FleetEvent& e : events) {
    const std::uint64_t start = e.ns - std::min(e.ns, e.arg);
    if (base == 0 || start < base) base = start;
  }

  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  const auto comma = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };

  // Process/thread name metadata: one process row per producer, one
  // thread row per (pid, tid) that shows up in the merged stream.
  for (const ProducerInfo& p : producers()) {
    comma();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRId64
                 ",\"tid\":0,\"args\":{\"name\":\"%s (pid %" PRId64 "%s)\"}}",
                 p.pid, json_escape(p.label).c_str(), p.pid,
                 p.quarantined ? ", quarantined"
                 : p.dead      ? ", died"
                               : "");
  }
  std::set<std::pair<std::int64_t, std::int32_t>> threads;
  for (const FleetEvent& e : events) threads.insert({e.pid, e.tid});
  for (const auto& [pid, tid] : threads) {
    comma();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRId64
                 ",\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 pid, tid, tid == 0 ? "master" : "worker");
  }

  for (const FleetEvent& e : events) {
    comma();
    if (!e.sample && e.code == OMP_EVENT_JOIN && e.arg > 0) {
      // FORK..JOIN region as a complete span on the master track.
      std::fprintf(f,
                   "{\"name\":\"parallel region\",\"cat\":\"region\","
                   "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%" PRId64
                   ",\"tid\":%d}",
                   static_cast<double>(e.ns - e.arg - base) / 1e3,
                   static_cast<double>(e.arg) / 1e3, e.pid, e.tid);
      continue;
    }
    const std::string name =
        e.sample ? state_display(e.code) : event_display(e.code);
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,"
                 "\"pid\":%" PRId64 ",\"tid\":%d,\"s\":\"t\"}",
                 json_escape(name).c_str(), e.sample ? "sample" : "event",
                 static_cast<double>(e.ns - base) / 1e3, e.pid, e.tid);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace orca::tool::orcamon
