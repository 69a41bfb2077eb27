/// fleet-paced: a forked producer process runs an open-loop stream of small
/// 2-thread `orca::omp::parallel` regions at a fixed rate with shm export
/// armed and no in-process collector; a 1-shard FleetMonitor in this
/// process drains it into a report and a Perfetto trace.
///
/// The producer must be a separate process: orcamon skips segments that
/// carry its own pid. Order per iteration is the documented fleet order —
/// monitor running first, then the producer creates and arms its segment —
/// and the stream starts only once the monitor has attached, so every
/// event is drainable and delivery is not a race between a free-running
/// producer and a sleeping reader.
///
/// Every exit path kills and reaps the child, stops and joins the monitor
/// under a deadline, and unlinks this run's segments.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "harness.hpp"
#include "runtime/runtime.hpp"
#include "shm/exporter.hpp"
#include "tool/orcamon/fleet_monitor.hpp"
#include "translate/omp.hpp"

namespace perfbench {
namespace {

using orca::tool::orcamon::FleetMonitor;
using orca::tool::orcamon::MonitorOptions;

constexpr int kTeam = 2;
constexpr double kRate = 5000;       ///< regions per second (open loop)
constexpr double kIdleRate = 20;     ///< near-zero rate for idle monitor CPU
constexpr double kStreamS = 1.0;     ///< stream length of one iteration
constexpr double kSpinS = 20e-6;     ///< pacing: sleep, then spin this long
/// Records one 2-thread region mirrors into the shm rings, checked exactly
/// against produced: FORK + JOIN, BEGIN/END_IBAR on both threads at the
/// loop barrier and the closing barrier, and the worker's END/BEGIN_IDLE.
constexpr std::uint64_t kEventsPerRegion = 12;
/// Records mirrored before the stream: the body-less warm-up region.
constexpr std::uint64_t kWarmupEvents = 9;
constexpr double kAttachDeadlineS = 3.0;
constexpr double kDrainDeadlineS = 10.0;

/// Seeded inputs: arrival offsets (a fixed-rate grid with per-slot jitter)
/// and per-region body sizes. The producer receives only these.
struct Schedule {
  std::vector<std::uint64_t> due_ns;  ///< offsets from stream start
  std::vector<std::uint32_t> body;    ///< loop trip count per region
};

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Schedule make_schedule(std::uint64_t seed, double rate, double seconds) {
  Schedule s;
  const auto n = static_cast<std::size_t>(rate * seconds);
  const double interval_ns = 1e9 / rate;
  std::uint64_t state = seed * 0x2545f4914f6cdd1dULL + 1;
  s.due_ns.reserve(n);
  s.body.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Jitter within +-40% of a slot keeps arrivals ordered at a fixed mean.
    const double u = static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
    s.due_ns.push_back(static_cast<std::uint64_t>(
        (static_cast<double>(i) + 0.5 + 0.8 * (u - 0.5)) * interval_ns));
    s.body.push_back(64 + static_cast<std::uint32_t>(splitmix(state) % 449));
  }
  return s;
}

/// What the producer reports back over its pipe.
struct ChildResult {
  double ctor_s = 0;
  double app_s = 0;
  double late_max_us = 0;
  double peak_rss_mb = 0;
  std::uint64_t regions = 0;  ///< stream regions run (warm-up excluded)
  std::uint64_t checksum = 0;
};  // followed on the pipe by `regions` doubles: each region's latency in us

bool write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Read exactly n bytes before `deadline` (now_s() clock). False on EOF,
/// error or timeout.
bool read_all(int fd, void* buf, std::size_t n, double deadline) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

void sleep_until_ns(std::uint64_t t_ns) {
  timespec ts{static_cast<time_t>(t_ns / 1000000000ULL),
              static_cast<long>(t_ns % 1000000000ULL)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// The producer process body. Never returns.
[[noreturn]] void producer_main(int go_fd, int out_fd, bool armed,
                                const std::string& prefix, const Schedule& sched) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // ns-accurate pacing sleeps
  prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);  // never outlive the harness
  reset_peak_rss();
  char cmd = 0;
  if (!read_all(go_fd, &cmd, 1, now_s() + 60) || cmd != 'G') _exit(10);
  ChildResult res;
  std::vector<double> latency_us;
  {
    const double t0 = now_s();
    orca::rt::RuntimeConfig cfg;
    cfg.num_threads = kTeam;
    cfg.shm_export = armed;
    cfg.shm_prefix = prefix;
    auto rt = std::make_unique<orca::rt::Runtime>(cfg);
    orca::rt::Runtime::make_current(rt.get());
    orca::omp::parallel([] {}, kTeam);  // warm-up: wakes the team once
    res.ctor_s = now_s() - t0;
    if (!write_all(out_fd, "A", 1)) _exit(11);
    if (!read_all(go_fd, &cmd, 1, now_s() + 60) || cmd != 'S') _exit(12);

    const std::size_t n = sched.due_ns.size();
    latency_us.resize(n);
    std::uint64_t partial[kTeam] = {};
    const std::uint64_t base = orca::SteadyClock::now();
    const auto spin_ns = static_cast<std::uint64_t>(kSpinS * 1e9);
    std::uint64_t late_max = 0;
    std::uint64_t end = base;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due = base + sched.due_ns[i];
      std::uint64_t now = orca::SteadyClock::now();
      if (now + spin_ns < due) sleep_until_ns(due - spin_ns);
      while ((now = orca::SteadyClock::now()) < due) {
      }
      late_max = std::max(late_max, now - due);
      const std::uint32_t trips = sched.body[i];
      orca::omp::parallel(
          [&](int gtid) {
            std::uint64_t x = i + 1;
            std::uint64_t acc = 0;
            orca::omp::for_static(0, trips - 1, 1, [&](long long k) {
              x = x * 6364136223846793005ULL + static_cast<std::uint64_t>(k);
              acc ^= x >> 17;
            });
            partial[gtid % kTeam] += acc;
          },
          kTeam);
      end = orca::SteadyClock::now();
      latency_us[i] = static_cast<double>(end - due) / 1e3;
    }
    res.app_s = static_cast<double>(end - base) / 1e9;
    res.regions = n;
    res.checksum = partial[0] * 31 + partial[1];
    res.late_max_us = static_cast<double>(late_max) / 1e3;
    orca::rt::Runtime::make_current(nullptr);
    // Runtime dtor: disarm -> segment finalized + unlinked.
  }
  res.peak_rss_mb = peak_rss_mb();
  const bool sent = write_all(out_fd, &res, sizeof(res)) &&
                    write_all(out_fd, latency_us.data(), latency_us.size() * sizeof(double));
  _exit(sent ? 0 : 13);
}

/// Everything one fleet iteration measured and checked.
struct FleetIter {
  bool armed = true;
  bool traced = false;
  bool warmup = false;
  double rate = kRate;
  double setup_s = 0, app_s = 0, report_s = 0, cpu_s = 0, mon_cpu_s = 0;
  double peak_rss_mb = 0;
  double ctor_s = 0, attach_s = 0, render_s = 0, trace_write_s = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t produced = 0, read = 0, lost = 0, expected_events = 0;
  ChildResult child;
  std::vector<double> latency_us;  ///< per region, from its due time
  std::string failure;
};

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Run one producer stream (optionally with the monitor draining it).
FleetIter fleet_iteration(const Options& opts, const std::string& prefix,
                          const Schedule& sched, bool armed, double rate,
                          Spans& spans, std::uint64_t* checksum_ref) {
  FleetIter it;
  it.armed = armed;
  it.traced = spans.enabled();
  it.rate = rate;
  it.expected_events = kEventsPerRegion * sched.due_ns.size() + kWarmupEvents;
  orca::shm::cleanup_stale_segments(prefix);
  auto fail = [&](std::string why) {
    if (it.failure.empty()) it.failure = std::move(why);
  };

  int go[2] = {-1, -1}, out[2] = {-1, -1};
  if (::pipe(go) != 0 || ::pipe(out) != 0) {
    for (const int fd : {go[0], go[1], out[0], out[1]}) {
      if (fd >= 0) ::close(fd);
    }
    it.failure = "pipe failed";
    return it;
  }
  const double t0 = now_s();
  const int setup_id = spans.open("setup", "workload");
  std::fflush(stdout);
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(go[1]);
    ::close(out[0]);
    producer_main(go[0], out[1], armed, prefix, sched);
  }
  ::close(go[0]);
  ::close(out[1]);
  if (child < 0) {
    ::close(go[1]);
    ::close(out[0]);
    spans.close(setup_id);
    it.failure = "fork failed";
    return it;
  }

  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const std::string trace_path = opts.work_dir + "/fleet_trace.json";
  std::unique_ptr<FleetMonitor> monitor;
  std::thread runner;
  std::atomic<bool> run_done{false};
  std::atomic<double> run_returned{0.0};
  if (armed) {
    MonitorOptions mo;
    mo.prefix = prefix;
    mo.shards = 1;
    mo.discover_ms = 5;
    mo.report_interval_s = 0;
    mo.trace_out = trace_path;
    mo.report_out = opts.work_dir + "/fleet_report.txt";
    mo.exit_when_idle = true;
    const int id = spans.open("FleetMonitor::run start", "orcamon");
    monitor = std::make_unique<FleetMonitor>(mo);
    runner = std::thread([&] {
      monitor->run();
      run_returned.store(now_s());
      run_done.store(true, std::memory_order_release);
    });
    spans.close(id);
  }

  // Every path below reaps the child (killing it first on failure) and
  // stops + joins the monitor before returning.
  bool reaped = false;
  rusage child_ru{};
  int status = 0;
  auto reap = [&](bool kill_first) {
    if (!reaped) {
      if (kill_first) ::kill(child, SIGKILL);
      while (::wait4(child, &status, 0, &child_ru) < 0 && errno == EINTR) {
      }
      reaped = true;
    }
  };
  auto stop_monitor = [&](double deadline) {
    if (!runner.joinable()) return true;
    while (!run_done.load(std::memory_order_acquire) && now_s() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!run_done.load(std::memory_order_acquire)) {
      // A quarantined producer never lets the session go idle.
      monitor->stop();
      const double hard = now_s() + 5.0;
      while (!run_done.load(std::memory_order_acquire) && now_s() < hard) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!run_done.load(std::memory_order_acquire)) {
        std::fprintf(stderr, "perfbench: FleetMonitor::run ignored stop()\n");
        std::fflush(stderr);
        _exit(4);  // run.py reaps the process group
      }
      runner.join();
      return false;
    }
    runner.join();
    return true;
  };

  char ack = 0;
  const bool go_ok = write_all(go[1], "G", 1);
  if (!go_ok || !read_all(out[0], &ack, 1, now_s() + kAttachDeadlineS) || ack != 'A') {
    fail("producer did not arm");
  }
  const double t_armed = now_s();
  if (it.failure.empty() && armed) {
    const int id = spans.open("orcamon attach", "orcamon");
    const double deadline = now_s() + kAttachDeadlineS;
    while (monitor->attached_count() == 0 && monitor->quarantines().empty() &&
           now_s() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    it.attach_s = now_s() - t_armed;
    spans.close(id);
    if (monitor->attached_count() == 0) {
      const auto q = monitor->quarantines();
      fail(q.empty() ? "monitor never attached" : "quarantined at attach: " + q[0].reason);
    }
  }
  spans.close(setup_id);
  it.setup_s = now_s() - t0;

  double t_exit = 0;
  if (it.failure.empty()) {
    const int id = spans.open("producer stream", "app");
    const double deadline =
        now_s() + 1.5 * static_cast<double>(sched.due_ns.back()) / 1e9 + 10;
    bool got = write_all(go[1], "S", 1) &&
               read_all(out[0], &it.child, sizeof(it.child), deadline);
    // A short schedule is reported by the region check below.
    if (got && it.child.regions == sched.due_ns.size()) {
      it.latency_us.resize(it.child.regions);
      got = read_all(out[0], it.latency_us.data(),
                     it.latency_us.size() * sizeof(double), deadline);
    }
    if (!got) fail("producer stream did not complete");
    t_exit = now_s();
    spans.close(id);
  }
  reap(!it.failure.empty());
  ::close(go[1]);
  ::close(out[0]);
  if (it.failure.empty() && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
    fail("producer exit status " + std::to_string(status));
  }
  // A failed iteration's producer is gone; stop the monitor at once.
  const bool idle = stop_monitor(now_s() + (it.failure.empty() ? kDrainDeadlineS : 0));
  if (!idle) fail("monitor did not go idle");
  if (armed && it.failure.empty()) it.report_s = run_returned.load() - t_exit;
  it.mon_cpu_s = process_cpu_s() - cpu0;
  it.cpu_s = it.mon_cpu_s + tv_s(child_ru.ru_utime) + tv_s(child_ru.ru_stime);
  it.peak_rss_mb = peak_rss_mb() + it.child.peak_rss_mb;
  it.ctor_s = it.child.ctor_s;
  it.app_s = it.child.app_s;

  // Correctness: the schedule ran in full, the input's checksum repeats,
  // and the shm books balance exactly with every mirrored event counted.
  if (it.failure.empty() && it.child.regions != sched.due_ns.size()) {
    fail("regions " + std::to_string(it.child.regions) + " != schedule " +
         std::to_string(sched.due_ns.size()));
  }
  if (it.failure.empty()) {
    if (*checksum_ref == 0) *checksum_ref = it.child.checksum;
    if (it.child.checksum != *checksum_ref) fail("checksum changed for one seed");
  }
  if (armed && monitor) {
    const auto fleet = monitor->producers();
    const auto quarantined = monitor->quarantines();
    if (!quarantined.empty()) fail("quarantined: " + quarantined[0].reason);
    if (fleet.size() != 1) {
      fail("monitor saw " + std::to_string(fleet.size()) + " producers");
    } else {
      it.produced = fleet[0].produced;
      it.read = fleet[0].read;
      it.lost = fleet[0].lost;
      if (!fleet[0].drained) fail("producer not drained");
      if (it.produced != it.read + it.lost) fail("books open: produced != read + lost");
      if (it.produced != it.expected_events) {
        fail("produced " + std::to_string(it.produced) + " != expected " +
             std::to_string(it.expected_events));
      }
    }
    struct stat st {};
    if (it.failure.empty() && (::stat(trace_path.c_str(), &st) != 0 || st.st_size == 0)) {
      fail("fleet trace not written");
    }
    if (spans.enabled() && it.failure.empty()) {
      {
        const int id = spans.open("FleetMonitor::render_report", "orcamon");
        const double t = now_s();
        const std::string text = monitor->render_report();
        it.render_s = now_s() - t;
        spans.close(id);
        if (text.empty()) fail("empty fleet report");
      }
      const std::string probe = opts.work_dir + "/fleet_trace_probe.json";
      const int id = spans.open("FleetMonitor::write_trace", "orcamon");
      const double t = now_s();
      const bool ok = monitor->write_trace(probe);
      it.trace_write_s = now_s() - t;
      spans.close(id);
      if (!ok || ::stat(probe.c_str(), &st) != 0) fail("probe trace not written");
      it.trace_bytes = static_cast<std::uint64_t>(st.st_size);
      ::unlink(probe.c_str());
    }
  }
  monitor.reset();
  orca::shm::cleanup_stale_segments(prefix);
  return it;
}

void print_fleet_iter(const FleetIter& it) {
  const bool ok = it.failure.empty();
  // A failed iteration delivered nothing: every event it fired is lost.
  const std::uint64_t fired = it.armed ? std::max(it.produced, it.expected_events) : 0;
  JsonLine("iter")
      .str("workload", "fleet-paced")
      .str("arm", it.armed ? (it.rate < kRate ? "idle" : "armed") : "disarmed")
      .flag("traced", it.traced)
      .flag("warmup", it.warmup)
      .flag("ok", ok)
      .str("failure", it.failure)
      .num("setup_s", it.setup_s)
      .num("app_s", it.app_s)
      .num("report_s", it.report_s)
      .num("cpu_s", it.cpu_s)
      .num("mon_cpu_s", it.mon_cpu_s)
      .num("peak_rss_mb", it.peak_rss_mb)
      .count("fired", fired)
      .count("delivered", ok ? it.read : 0)
      .num("region_p50_us", percentile(it.latency_us, 0.50))
      .count("region_samples", it.latency_us.size())
      .count("regions", it.child.regions)
      .count("checksum", it.child.checksum)
      .count("produced", it.produced)
      .count("read", it.read)
      .count("lost", it.lost)
      .num("late_max_us", it.child.late_max_us)
      .print();
}

double med(const std::vector<FleetIter>& its, double FleetIter::*field) {
  std::vector<double> v;
  for (const FleetIter& it : its) v.push_back(it.*field);
  return median(v);
}

}  // namespace

int run_fleet_paced(const Options& opts, Spans& spans) {
  // Producer team + the monitor's one shard thread; the generator paces
  // with sleeps and the discovery thread sleeps between passes.
  if (!check_thread_budget("fleet-paced", kTeam + 1)) return 3;
  const std::string prefix =
      "orcabench-" + std::to_string(::getpid()) + "-" + std::to_string(opts.seed);
  const Schedule sched = make_schedule(opts.seed, kRate, kStreamS);
  std::uint64_t checksum_ref = 0;

  if (!opts.trace) {
    const double deadline = now_s() + opts.seconds;
    // Iteration 0 is the checked but unmeasured warm-up, as in the tool
    // workloads.
    for (int n = 0; n <= kMinMeasured || now_s() < deadline; ++n) {
      FleetIter it = fleet_iteration(opts, prefix, sched, true, kRate, spans, &checksum_ref);
      it.warmup = n == 0;
      print_fleet_iter(it);
    }
    ::unlink((opts.work_dir + "/fleet_trace.json").c_str());
    return 0;
  }

  const Schedule idle = make_schedule(opts.seed, kIdleRate, kStreamS);
  std::uint64_t idle_ref = 0;
  std::vector<FleetIter> armed, disarmed, idles, plain;
  const double deadline = now_s() + opts.seconds;
  int rounds = 0;
  do {
    FleetIter a = fleet_iteration(opts, prefix, sched, true, kRate, spans, &checksum_ref);
    FleetIter d = fleet_iteration(opts, prefix, sched, false, kRate, spans, &checksum_ref);
    FleetIter i = fleet_iteration(opts, prefix, idle, true, kIdleRate, spans, &idle_ref);
    spans.enable(false);
    FleetIter p = fleet_iteration(opts, prefix, sched, true, kRate, spans, &checksum_ref);
    spans.enable(true);
    for (FleetIter* x : {&a, &d, &i, &p}) print_fleet_iter(*x);
    if (a.failure.empty()) armed.push_back(a);
    if (d.failure.empty()) disarmed.push_back(d);
    if (i.failure.empty()) idles.push_back(i);
    if (p.failure.empty()) plain.push_back(p);
    ++rounds;
  } while (now_s() < deadline || rounds < 2);
  ::unlink((opts.work_dir + "/fleet_trace.json").c_str());
  if (armed.empty() || disarmed.empty() || idles.empty() || plain.empty()) {
    std::fprintf(stderr, "perfbench: every iteration of one fleet arm failed\n");
    return 1;
  }

  const std::uint64_t n = armed.size();
  std::vector<double> armed_p50, off_p50, late, pooled;
  for (const FleetIter& it : armed) {
    armed_p50.push_back(percentile(it.latency_us, 0.50));
    late.push_back(it.child.late_max_us);
    pooled.insert(pooled.end(), it.latency_us.begin(), it.latency_us.end());
  }
  for (const FleetIter& it : disarmed) off_p50.push_back(percentile(it.latency_us, 0.50));
  std::vector<double> ctor;
  for (const auto* set : {&armed, &disarmed}) {
    for (const FleetIter& it : *set) ctor.push_back(it.ctor_s);
  }
  const FleetIter& last = armed.back();
  const std::string note = "median of " + std::to_string(n) + " armed streams";

  const char* bypass = "bypassed: no in-process collector, perf store or unwind";
  for (const char* name :
       {"collector.dispatch_ns_per_event", "tool.measure_ns_per_event",
        "perf.samples_stored", "perf.samples_dropped", "unwind.capture_us_per_join",
        "unwind.join_records", "unwind.frames", "perf.merge_s",
        "unwind.reconstruct_us_per_record", "tool.finalize_s", "tool.render_s",
        "share.comm_pct", "share.measure_pct", "share.capture_pct",
        "share.measure_storage_pct", "share.residual_pct",
        "share.paper_measure_storage_pct"}) {
    layer(name, 0, "", 0, bypass);
  }
  layer("runtime.ctor_s", median(ctor), "s", ctor.size(),
        "producer Runtime ctor (+ shm arm when armed) + warm-up");
  layer("tool.attach_s", med(armed, &FleetIter::attach_s), "s", n,
        "producer armed -> FleetMonitor attached");
  layer("runtime.off_app_s", med(disarmed, &FleetIter::app_s), "s", disarmed.size(),
        "export-disarmed stream app_s");
  layer("runtime.off_region_p50_us", median(off_p50), "us", disarmed.size(),
        "export-disarmed per-region latency p50");
  layer("shm.mirror_ns_per_event",
        (median(armed_p50) - median(off_p50)) * 1e3 / kEventsPerRegion, "ns", n,
        "(armed - disarmed region p50) / events per region");
  layer("shm.produced", static_cast<double>(last.produced), "count", 1, "last armed stream");
  layer("shm.read", static_cast<double>(last.read), "count", 1, "last armed stream");
  layer("shm.lost", static_cast<double>(last.lost), "count", 1, "last armed stream");
  std::vector<double> ns_per_event;
  for (const FleetIter& it : armed) {
    if (it.read > 0) ns_per_event.push_back(it.mon_cpu_s / static_cast<double>(it.read) * 1e9);
  }
  layer("orcamon.cpu_ns_per_event", median(ns_per_event), "ns", ns_per_event.size(),
        "monitor-process CPU / records read");
  std::vector<double> idle_frac;
  for (const FleetIter& it : idles) idle_frac.push_back(it.mon_cpu_s / (it.app_s + it.setup_s + it.report_s));
  layer("orcamon.idle_cpu_frac", median(idle_frac), "cpu/s", idle_frac.size(),
        "monitor CPU per wall second at a near-zero rate");
  std::vector<double> drain;
  for (const FleetIter& it : armed) drain.push_back(it.report_s - it.trace_write_s - it.render_s);
  layer("orcamon.drain_s", median(drain), "s", n,
        "producer exit -> run() returned, minus the trace write and render");
  layer("orcamon.render_s", med(armed, &FleetIter::render_s), "s", n,
        "FleetMonitor::render_report span");
  layer("orcamon.trace_write_s", med(armed, &FleetIter::trace_write_s), "s", n,
        "FleetMonitor::write_trace span");
  layer("orcamon.trace_bytes", static_cast<double>(last.trace_bytes), "bytes", 1,
        "Perfetto JSON size, last armed stream");
  layer("region.p99_us", percentile(pooled, 0.99), "us", pooled.size(),
        "region latency p99 from due time, pooled over the armed streams");
  layer("gen.late_max_us", median(late), "us", n,
        "generator health (not gated): worst start lateness per stream, " + note);
  const double traced = med(armed, &FleetIter::app_s) + med(armed, &FleetIter::report_s);
  const double untraced = med(plain, &FleetIter::app_s) + med(plain, &FleetIter::report_s);
  layer("trace.overhead_ms", (traced - untraced) * 1e3, "ms", plain.size(),
        "traced - untraced app_s + report_s");
  return 0;
}

}  // namespace perfbench
