#include "testing/chaos.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "shm/layout.hpp"
#include "shm/reader.hpp"

namespace orca::testing::chaos {
namespace {

/// Op weights: flaps and pauses are weather, stop/cont churn is common,
/// the destructive ops are salted in sparingly so most schedules leave
/// some producers draining normally (the interesting interleavings are
/// partial failures, not total ones).
ChaosOp pick_op(std::uint64_t roll) noexcept {
  const std::uint64_t r = roll % 100;
  if (r < 20) return ChaosOp::kPause;
  if (r < 40) return ChaosOp::kFlapAttach;
  if (r < 58) return ChaosOp::kStop;
  if (r < 76) return ChaosOp::kCont;
  if (r < 84) return ChaosOp::kKill;
  if (r < 92) return ChaosOp::kTruncate;
  return ChaosOp::kMutateHeader;
}

void mutate_header(const std::string& path, std::uint64_t field) {
  const int fd = ::shm_open(path.c_str(), O_RDWR, 0);
  if (fd < 0) return;
  void* base = ::mmap(nullptr, sizeof(shm::SegmentHeader),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return;
  auto* h = static_cast<shm::SegmentHeader*>(base);
  // Geometry fields only: attached readers snapshotted these at attach
  // (mutations must be survivable), and future attaches must reject them
  // (mutations must be caught). Never the ring tails — the books are the
  // invariant under test, not a knob.
  switch (field % 6) {
    case 0: h->ring_count = 0x7FFFFFFFu; break;
    case 1: h->event_capacity = 3; break;               // not a power of two
    case 2: h->event_cells_off = h->segment_bytes + 4096; break;
    case 3: h->segment_bytes = ~0ull >> 1; break;
    case 4: std::memset(h->label, 'X', sizeof(h->label)); break;
    case 5: h->magic ^= 0xFF; break;
  }
  ::munmap(base, sizeof(shm::SegmentHeader));
}

void truncate_segment(const std::string& path, std::uint64_t depth) {
  const int fd = ::shm_open(path.c_str(), O_RDWR, 0);
  if (fd < 0) return;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return;
  }
  // Depth picks how much survives: half the segment (drains SIGBUS
  // mid-ring), just the header (everything derived is gone), or nearly
  // nothing (even the header faults).
  off_t keep;
  switch (depth % 3) {
    case 0: keep = st.st_size / 2; break;
    case 1: keep = static_cast<off_t>(sizeof(shm::SegmentHeader)); break;
    default: keep = static_cast<off_t>(sizeof(shm::SegmentHeader) / 2); break;
  }
  (void)!::ftruncate(fd, keep);
  ::close(fd);
}

}  // namespace

const char* chaos_op_name(ChaosOp op) noexcept {
  switch (op) {
    case ChaosOp::kPause: return "pause";
    case ChaosOp::kStop: return "stop";
    case ChaosOp::kCont: return "cont";
    case ChaosOp::kKill: return "kill";
    case ChaosOp::kTruncate: return "truncate";
    case ChaosOp::kMutateHeader: return "mutate-header";
    case ChaosOp::kFlapAttach: return "flap-attach";
    case ChaosOp::kCount_: break;
  }
  return "?";
}

ChaosSchedule ChaosSchedule::generate(std::uint64_t seed, std::uint64_t index,
                                      std::size_t step_count,
                                      std::size_t fleet) {
  ChaosSchedule s;
  s.seed = seed;
  if (fleet == 0) return s;
  // Salt the stream position with the schedule index so one campaign
  // seed yields `n` distinct but individually replayable schedules.
  const std::uint64_t stream = seed ^ (index * 0x9E3779B97F4A7C15ULL);
  s.steps.reserve(step_count + fleet);
  std::vector<bool> stopped(fleet, false);
  for (std::size_t i = 0; i < step_count; ++i) {
    const std::uint64_t r0 = SplitMix64::at(stream, i * 4 + 0);
    const std::uint64_t r1 = SplitMix64::at(stream, i * 4 + 1);
    const std::uint64_t r2 = SplitMix64::at(stream, i * 4 + 2);
    const std::uint64_t r3 = SplitMix64::at(stream, i * 4 + 3);
    ChaosStep step;
    step.delay_ms = static_cast<unsigned>(r0 % 25);
    step.op = pick_op(r1);
    step.victim = static_cast<unsigned>(r2 % fleet);
    step.param = r3;
    if (step.op == ChaosOp::kStop) stopped[step.victim] = true;
    if (step.op == ChaosOp::kCont || step.op == ChaosOp::kKill) {
      stopped[step.victim] = false;
    }
    s.steps.push_back(step);
  }
  // Fairness epilogue: unfreeze anyone still stopped so books can close.
  for (std::size_t v = 0; v < fleet; ++v) {
    if (!stopped[v]) continue;
    ChaosStep step;
    step.op = ChaosOp::kCont;
    step.victim = static_cast<unsigned>(v);
    s.steps.push_back(step);
  }
  return s;
}

std::string ChaosSchedule::describe() const {
  std::ostringstream os;
  os << "chaos schedule seed=0x" << std::hex << seed << std::dec << " ("
     << steps.size() << " steps)\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const ChaosStep& st = steps[i];
    os << "  [" << i << "] +" << st.delay_ms << "ms "
       << chaos_op_name(st.op) << " victim=" << st.victim;
    if (st.op == ChaosOp::kTruncate) os << " depth=" << st.param % 3;
    if (st.op == ChaosOp::kMutateHeader) os << " field=" << st.param % 6;
    os << "\n";
  }
  return os.str();
}

void run_schedule(const ChaosSchedule& schedule,
                  const std::vector<ChaosVictim>& victims) {
  if (victims.empty()) return;
  for (const ChaosStep& step : schedule.steps) {
    if (step.delay_ms != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(step.delay_ms));
    }
    const ChaosVictim& v = victims[step.victim % victims.size()];
    const std::string path = "/" + v.segment;
    switch (step.op) {
      case ChaosOp::kPause:
        break;
      case ChaosOp::kStop:
        (void)::kill(v.pid, SIGSTOP);
        break;
      case ChaosOp::kCont:
        (void)::kill(v.pid, SIGCONT);
        break;
      case ChaosOp::kKill:
        (void)::kill(v.pid, SIGKILL);
        break;
      case ChaosOp::kTruncate:
        truncate_segment(path, step.param);
        break;
      case ChaosOp::kMutateHeader:
        mutate_header(path, step.param);
        break;
      case ChaosOp::kFlapAttach: {
        // A stranger's reader coming and going: exercises the
        // attach/unlink races from the outside.
        shm::AttachError err;
        auto reader = shm::SegmentReader::attach(v.segment, &err);
        reader.reset();
        break;
      }
      case ChaosOp::kCount_:
        break;
    }
  }
  // Belt and braces: minimization may have dropped a CONT the generator
  // guaranteed, and a frozen victim would wedge the caller's reap.
  for (const ChaosVictim& v : victims) {
    (void)::kill(v.pid, SIGCONT);
  }
}

ChaosSchedule minimize(
    const ChaosSchedule& failing,
    const std::function<bool(const ChaosSchedule&)>& still_fails,
    std::size_t max_replays) {
  ChaosSchedule best = failing;
  std::size_t replays = 0;
  const auto without = [&](std::size_t from, std::size_t count) {
    ChaosSchedule candidate;
    candidate.seed = best.seed;
    for (std::size_t i = 0; i < best.steps.size(); ++i) {
      if (i >= from && i < from + count) continue;
      candidate.steps.push_back(best.steps[i]);
    }
    return candidate;
  };
  // Halves first (log-sized progress), then a single-step sweep.
  for (std::size_t chunk = std::max<std::size_t>(best.steps.size() / 2, 1);
       chunk >= 1; chunk /= 2) {
    bool shrunk = true;
    while (shrunk && replays < max_replays) {
      shrunk = false;
      for (std::size_t from = 0;
           from < best.steps.size() && replays < max_replays;
           from += chunk) {
        const ChaosSchedule candidate = without(from, chunk);
        if (candidate.steps.size() == best.steps.size()) continue;
        ++replays;
        if (still_fails(candidate)) {
          best = candidate;
          shrunk = true;
          break;  // indices moved; restart this chunk size
        }
      }
    }
    if (chunk == 1) break;
  }
  return best;
}

}  // namespace orca::testing::chaos
