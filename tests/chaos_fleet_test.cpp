/// Seeded chaos campaign against a live shm fleet (ctest labels: fleet,
/// chaos). Each schedule derives entirely from (ORCA_TEST_SEED, index)
/// and throws SIGSTOP/SIGKILL/truncate/header-scribble/attach-flap
/// weather at three producer children while orcamon drains them. The
/// invariants under test are the monitor's hostile-world claims:
///
///   * the daemon never crashes, whatever the fleet does;
///   * every attached producer ends the session either drained or
///     quarantined-with-a-reason — no silent limbo;
///   * a drained producer's books are honest: produced == read + lost.
///
/// A failing schedule is greedily minimized (testing/chaos.hpp) and the
/// failure message carries the campaign seed + index to replay it.
///
/// Alongside the randomized campaign, three deterministic scenarios pin
/// the individual defenses: the shard watchdog replacing a wedged drain
/// thread, the hard heartbeat deadline draining a SIGSTOPped producer,
/// and attach-phase quarantine: a never-ready segment at once, a segment
/// whose attaches keep failing with I/O errors once the retry budget is
/// spent.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet_session.hpp"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "shm/layout.hpp"
#include "shm/reader.hpp"
#include "testing/chaos.hpp"
#include "testing/conformance.hpp"
#include "testing/fault_injection.hpp"
#include "tool/orcamon/fleet_monitor.hpp"

namespace {

namespace chaos = orca::testing::chaos;
using orca::rt::Runtime;
using orca::rt::RuntimeConfig;
using orca::testing::FleetSession;
using orca::tool::orcamon::FleetMonitor;
using orca::tool::orcamon::MonitorOptions;
using orca::tool::orcamon::ProducerInfo;
using orca::tool::orcamon::QuarantineRecord;

void burn_region(int, void*) {
  volatile double x = 0;
  for (int i = 0; i < 2000; ++i) x = x + i;
}

/// Child body: export through shm and run parallel regions until the stop
/// file appears (or a failsafe cap runs out). Chaos may SIGKILL us, or
/// truncate the segment under our own mapping and let SIGBUS do it — any
/// exit is a legitimate exit for a chaos victim.
[[noreturn]] void producer_child(const std::string& prefix,
                                 const std::string& stop_file) {
  RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.max_threads = 4;
  cfg.shm_export = true;
  cfg.shm_prefix = prefix;
  cfg.shm_ring_capacity = 1024;
  cfg.shm_heartbeat_ms = 10;
  auto* rt = new Runtime(cfg);
  Runtime::make_current(rt);
  if (!orca::shm::export_armed()) _exit(10);
  for (int i = 0; i < 60000; ++i) {
    rt->fork(&burn_region, nullptr, 2);
    if (::access(stop_file.c_str(), F_OK) == 0) break;
    ::usleep(1000);
  }
  delete rt;
  _exit(0);
}

/// Runs `fn` when the scope ends, whichever way it ends.
class OnExit {
 public:
  explicit OnExit(std::function<void()> fn) : fn_(std::move(fn)) {}
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;
  ~OnExit() { fn_(); }

 private:
  std::function<void()> fn_;
};

struct ScenarioResult {
  bool ok = true;
  std::string detail;
};

/// One full fleet session under one schedule: fork three producers, run
/// the schedule against them while orcamon drains, close the session,
/// check the invariants. Fresh prefix per call so minimization replays
/// never see a previous run's segments.
ScenarioResult run_scenario(const chaos::ChaosSchedule& schedule) {
  static std::atomic<int> scenario_counter{0};
  const int id = scenario_counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(id);
  FleetSession session("orcachaos-" + tag, "chaos_stop." + tag);

  ScenarioResult result;
  for (int i = 0; i < 3; ++i) {
    if (session.fork_producer(&producer_child) < 0) {
      result.ok = false;
      result.detail = "fork failed";
      return result;
    }
  }

  // Victims come from discovery, same as the monitor's own view.
  std::vector<orca::shm::SegmentName> segs;
  const auto arm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < arm_deadline) {
    segs = orca::shm::discover_segments(session.prefix());
    if (segs.size() >= 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<chaos::ChaosVictim> victims;
  for (const orca::shm::SegmentName& s : segs) {
    victims.push_back({static_cast<pid_t>(s.pid), s.name});
  }
  if (victims.size() != 3) {
    result.ok = false;
    result.detail = "fleet never armed (" + std::to_string(victims.size()) +
                    "/3 segments)";
    return result;
  }

  MonitorOptions opts;
  opts.prefix = session.prefix();
  opts.shards = 2;
  opts.poll_ms = 1;
  opts.discover_ms = 10;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  opts.exit_when_idle = true;
  opts.duration_s = 15;  // failsafe: idle-exit is the expected path
  opts.liveness_grace = 3;
  opts.attach_retry_ms = 5;
  opts.attach_retry_max = 4;
  // SIGSTOP weather + a hard staleness deadline would force-close the
  // books of a producer that later resumes and publishes more; random
  // schedules therefore run without the deadline (it has its own
  // deterministic test below, where the victim never resumes).
  opts.heartbeat_deadline_ms = 0;
  FleetMonitor& monitor = session.start_monitor(opts);

  chaos::run_schedule(schedule, victims);  // ends with a SIGCONT sweep
  session.stop_producers();
  for (const pid_t kid : std::vector<pid_t>(session.children())) {
    int status = 0;
    (void)session.reap(kid, &status);  // any exit is fine for a victim
  }
  session.join_monitor();

  std::ostringstream why;
  for (const ProducerInfo& p : monitor.producers()) {
    if (p.quarantined) {
      if (p.quarantine_reason.empty()) {
        result.ok = false;
        why << "pid " << p.pid << " quarantined without a reason; ";
      }
      continue;  // settled: books were snapshotted on the way in
    }
    if (!p.drained) {
      result.ok = false;
      why << "pid " << p.pid << " neither drained nor quarantined; ";
      continue;
    }
    if (p.produced != p.read + p.lost) {
      result.ok = false;
      why << "books off for pid " << p.pid << ": produced=" << p.produced
          << " read=" << p.read << " lost=" << p.lost << "; ";
    }
  }
  for (const QuarantineRecord& q : monitor.quarantines()) {
    if (q.reason.empty()) {
      result.ok = false;
      why << "quarantine record for " << q.name << " without a reason; ";
    }
  }
  result.detail = why.str();
  return result;
}

TEST(ChaosFleet, SeededScheduleCampaign) {
  const std::uint64_t seed = orca::testing::conformance_seed(0x5EEDF00Dull);
  int schedules = 25;
  if (const char* env = std::getenv("ORCA_CHAOS_SCHEDULES")) {
    const int n = std::atoi(env);
    if (n > 0) schedules = n;
  }
  for (int i = 0; i < schedules; ++i) {
    const chaos::ChaosSchedule schedule = chaos::ChaosSchedule::generate(
        seed, static_cast<std::uint64_t>(i), /*step_count=*/28, /*fleet=*/3);
    const ScenarioResult outcome = run_scenario(schedule);
    if (outcome.ok) continue;
    // Shrink the schedule before reporting: a dozen replays for a repro a
    // human can read beats a 30-step haystack.
    const chaos::ChaosSchedule minimal = chaos::minimize(
        schedule,
        [](const chaos::ChaosSchedule& cand) {
          return !run_scenario(cand).ok;
        },
        /*max_replays=*/16);
    ADD_FAILURE() << "chaos schedule " << i << " broke fleet invariants: "
                  << outcome.detail << "\nreproduce: ORCA_TEST_SEED=0x"
                  << std::hex << seed << std::dec << " (schedule index " << i
                  << ")\nminimized to " << minimal.steps.size()
                  << " step(s):\n"
                  << minimal.describe();
    break;  // one minimized repro is worth more than N raw failures
  }
}

TEST(ChaosFleet, WatchdogReplacesWedgedShard) {
  const std::string tag = std::to_string(::getpid());
  auto& inj = orca::testing::FaultInjector::instance();
  std::atomic<bool> wedged{false};
  std::atomic<bool> release{false};
  // Disarm only after the session joined every monitor thread (the
  // injector must not be reconfigured under a running seam).
  const OnExit disarm_injector{[&] { inj.disarm(); }};
  FleetSession session("orcachaos-wd-" + tag, "chaos_wd_stop." + tag);

  // Fork before arming: the child must not inherit an armed injector.
  const pid_t kid = session.fork_producer(&producer_child);
  ASSERT_GT(kid, 0);

  // Wedge exactly one shard thread at the top of its pass; replacements
  // (and the other shard) sail through.
  inj.set_hook(orca::testing::FaultPoint::kShardDrain, [&] {
    bool claim = false;
    if (wedged.compare_exchange_strong(claim, true)) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  inj.arm();
  // Runs before the session's teardown on every path: the monitor's
  // destructor joins the retired thread, which needs the hook released.
  const OnExit unwedge{
      [&] { release.store(true, std::memory_order_release); }};

  MonitorOptions opts;
  opts.prefix = session.prefix();
  opts.shards = 2;
  opts.poll_ms = 1;
  opts.discover_ms = 10;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  opts.exit_when_idle = true;
  opts.duration_s = 20;  // failsafe
  opts.liveness_grace = 4;
  opts.shard_stall_ms = 100;
  FleetMonitor& monitor = session.start_monitor(opts);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (monitor.watchdog_restarts() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(monitor.watchdog_restarts(), 1u)
      << "watchdog never replaced the wedged shard";

  release.store(true, std::memory_order_release);
  session.stop_producers();
  int status = 0;
  ASSERT_TRUE(session.reap(kid, &status));
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  session.join_monitor();

  // The replacement drained what the wedged thread abandoned: books
  // close honestly despite the mid-session thread swap.
  const std::vector<ProducerInfo> fleet = monitor.producers();
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_TRUE(fleet[0].drained);
  EXPECT_FALSE(fleet[0].quarantined);
  EXPECT_EQ(fleet[0].produced, fleet[0].read + fleet[0].lost);
  EXPECT_GT(fleet[0].read, 0u);
}

TEST(ChaosFleet, HeartbeatDeadlineDrainsStalledProducer) {
  const std::string tag = std::to_string(::getpid());
  FleetSession session("orcachaos-stall-" + tag, "chaos_stall_stop." + tag);
  const pid_t kid = session.fork_producer(&producer_child);
  ASSERT_GT(kid, 0);

  MonitorOptions opts;
  opts.prefix = session.prefix();
  opts.shards = 2;
  opts.poll_ms = 1;
  opts.discover_ms = 10;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  opts.exit_when_idle = true;
  opts.duration_s = 20;  // failsafe
  // The ordinary missed-heartbeat path is disabled (absurd grace); only
  // the hard staleness deadline can declare this producer gone.
  opts.liveness_grace = 1000000;
  opts.heartbeat_deadline_ms = 250;
  FleetMonitor& monitor = session.start_monitor(opts);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while ((monitor.attached_count() < 1 || monitor.events_seen() < 100) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(monitor.attached_count(), 1u);
  ASSERT_GE(monitor.events_seen(), 100u);

  // Freeze the producer. Its pid stays alive, so without the deadline the
  // monitor would wait forever; with it the books get force-closed. The
  // victim is never resumed before the monitor exits — resuming after a
  // force-close is exactly the case the deadline knob documents away.
  // The session SIGKILLs and reaps it, and unlinks its segment.
  ASSERT_EQ(::kill(kid, SIGSTOP), 0);
  session.join_monitor();

  const std::vector<ProducerInfo> fleet = monitor.producers();
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_TRUE(fleet[0].stalled) << "deadline should report stalled, not dead";
  EXPECT_TRUE(fleet[0].drained);
  EXPECT_FALSE(fleet[0].quarantined);
  EXPECT_EQ(fleet[0].produced, fleet[0].read + fleet[0].lost);
  EXPECT_GT(fleet[0].read, 0u);
}

/// A header-only segment that never becomes ready: valid magic/version,
/// `ready` forever 0. Only a foreign creator can publish one, since the
/// exporter names a segment once it is complete.
struct NeverReadySegment {
  std::string name;
  int fd = -1;
  void* base = MAP_FAILED;

  explicit NeverReadySegment(std::string seg_name)
      : name(std::move(seg_name)) {
    fd = ::shm_open(("/" + name).c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 ||
        ::ftruncate(fd, sizeof(orca::shm::SegmentHeader)) != 0) {
      return;
    }
    base = ::mmap(nullptr, sizeof(orca::shm::SegmentHeader),
                  PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) return;
    auto* header = new (base) orca::shm::SegmentHeader{};
    header->magic = orca::shm::kMagic;
    header->version = orca::shm::kVersion;
    header->header_bytes = sizeof(orca::shm::SegmentHeader);
    header->segment_bytes = sizeof(orca::shm::SegmentHeader);
  }
  NeverReadySegment(const NeverReadySegment&) = delete;
  NeverReadySegment& operator=(const NeverReadySegment&) = delete;
  ~NeverReadySegment() {
    if (base != MAP_FAILED) ::munmap(base, sizeof(orca::shm::SegmentHeader));
    if (fd >= 0) ::close(fd);
    ::shm_unlink(("/" + name).c_str());
  }
  bool ok() const { return base != MAP_FAILED; }
};

MonitorOptions attach_only_options(const std::string& prefix,
                                   double duration_s) {
  MonitorOptions opts;
  opts.prefix = prefix;
  opts.shards = 1;
  opts.discover_ms = 10;
  opts.report_interval_s = 0;
  opts.report_out = "/dev/null";
  opts.duration_s = duration_s;  // no producer will ever attach
  opts.attach_retry_ms = 2;
  opts.attach_retry_max = 3;
  return opts;
}

TEST(ChaosFleet, AttachRetriesExhaustedBecomeQuarantine) {
  const std::string prefix = "orcachaos-stub-" + std::to_string(::getpid());
  auto& inj = orca::testing::FaultInjector::instance();
  const OnExit disarm_injector{[&] { inj.disarm(); }};

  // A never-ready segment is corrupt, not late: one attach attempt, one
  // quarantine, no backoff. The pid in the name is foreign so the monitor
  // does not skip it as self.
  {
    NeverReadySegment stub(prefix + ".999999.0");
    ASSERT_TRUE(stub.ok());
    inj.arm();  // no hooks or budgets: only counts seam hits
    FleetMonitor monitor(attach_only_options(prefix, 0.5));
    EXPECT_EQ(monitor.run(), 0u) << "a never-ready segment must not attach";
    EXPECT_EQ(inj.hits(orca::testing::FaultPoint::kShmAttach), 1u)
        << "a corrupt segment must not be retried";
    inj.disarm();
    const std::vector<QuarantineRecord> q = monitor.quarantines();
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].name, stub.name);
    EXPECT_EQ(q[0].pid, 999999);
    EXPECT_TRUE(q[0].attach_phase);
    EXPECT_NE(q[0].reason.find("ready"), std::string::npos) << q[0].reason;
    EXPECT_EQ(q[0].reason.find("retries exhausted"), std::string::npos)
        << q[0].reason;
  }

  // A healthy, complete segment whose every attach fails with kIo (the
  // kShmAttach seam) is retried with backoff until the budget is spent.
  orca::shm::ExporterOptions eo;
  eo.name = prefix + ".999999.1";
  eo.ring_count = 2;
  eo.event_capacity = 16;
  eo.sample_capacity = 16;
  eo.crash_capacity = 256;
  ASSERT_TRUE(orca::shm::arm(eo));
  const OnExit disarm_export{[] { orca::shm::disarm(); }};
  inj.fail_allocs(orca::testing::FaultPoint::kShmAttach, 1000);
  inj.arm();
  FleetMonitor monitor(attach_only_options(prefix, 2));
  EXPECT_EQ(monitor.run(), 0u) << "every attach was made to fail";

  const std::vector<QuarantineRecord> q = monitor.quarantines();
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q[0].name, eo.name);
  EXPECT_EQ(q[0].pid, 999999);
  EXPECT_TRUE(q[0].attach_phase);
  EXPECT_NE(q[0].reason.find("retries exhausted"), std::string::npos)
      << q[0].reason;
  EXPECT_NE(q[0].reason.find("3x"), std::string::npos) << q[0].reason;
  EXPECT_NE(q[0].reason.find("last io"), std::string::npos) << q[0].reason;

  const std::string report = monitor.render_report();
  EXPECT_NE(report.find("quarantined at attach"), std::string::npos)
      << report;
}

}  // namespace
