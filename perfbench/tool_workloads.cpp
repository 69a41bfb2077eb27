/// The in-process tool workload, luhp-tool: LU-HP (Table I's
/// 298,959-region outlier) at 3 threads in one Runtime, PrototypeCollector
/// attached with its default options, then detach + finalize + render.
///
/// An untraced run repeats the full-collector iteration for --seconds and
/// prints one "iter" line each. A traced run interleaves the ToolOptions
/// arms of bench_breakdown (off / comm-only / no-callstack / full, plus an
/// untraced full arm to price the spans) and prints the per-layer metrics.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "npb/common.hpp"
#include "npb/kernels.hpp"
#include "runtime/runtime.hpp"
#include "tool/collector_tool.hpp"
#include "translate/omp.hpp"
#include "unwind/user_model.hpp"

namespace perfbench {
namespace {

using orca::tool::PrototypeCollector;
using orca::tool::ToolOptions;

constexpr const char* kWorkload = "luhp-tool";
constexpr int kLuThreads = 3;
constexpr double kLuScale = 0.1;
/// LU-HP's measurement/storage share of the collection overhead (Sec. V-B).
constexpr double kPaperSharePct = 81.22;
constexpr double kChecksumRelTol = 1e-9;

/// The collector arms of the paper's Sec. V-B breakdown, set only through
/// existing ToolOptions fields.
enum class Arm { kOff, kComm, kNoCallstack, kFull };

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kOff: return "off";
    case Arm::kComm: return "comm";
    case Arm::kNoCallstack: return "nocs";
    case Arm::kFull: return "full";
  }
  return "?";
}

ToolOptions arm_options(Arm arm) {
  ToolOptions opts;  // kFull: the tool's defaults
  if (arm == Arm::kComm) {
    opts.measure = false;
    opts.record_callstacks = false;
    opts.query_region_ids = false;
  } else if (arm == Arm::kNoCallstack) {
    opts.record_callstacks = false;
  }
  return opts;
}

/// Callbacks per LU-HP region: FORK + JOIN on the master, and on
/// every team thread BEGIN/END_IBAR at the region's worksharing-loop
/// barrier and again at its closing barrier.
constexpr std::uint64_t events_per_region(int threads) { return 2 + 4 * threads; }

/// Everything one iteration measured and checked.
struct Iter {
  Arm arm = Arm::kFull;
  bool traced = false;
  bool warmup = false;  ///< checked, but kept out of the run's metrics
  double setup_s = 0, app_s = 0, report_s = 0, cpu_s = 0, consumer_cpu_s = 0;
  double peak_rss_mb = 0;
  double ctor_s = 0, attach_s = 0;
  double merge_s = 0, reconstruct_s = 0, finalize_s = 0, render_s = 0;
  std::uint64_t regions = 0, expected_regions = 0;
  std::uint64_t callbacks = 0, expected_callbacks = 0, stored = 0, dropped = 0;
  std::uint64_t join_records = 0, frames = 0, profiled_joins = 0;
  std::vector<double> region_us;
  double checksum = 0;
  std::string failure;  ///< empty = every check passed
};

/// Collects the report-side numbers of a collector-armed iteration and
/// runs the book-balance checks.
void finish_report(Iter& it, Spans& spans, bool probe_layers) {
  auto& tool = PrototypeCollector::instance();
  const double consumer0 = thread_cpu_s();
  const double r0 = now_s();
  {
    Scoped s(spans, "tool.detach", "tool");
    tool.detach();
  }
  orca::tool::Report report;
  {
    const int id = spans.open("tool.finalize", "tool");
    const double t = now_s();
    report = tool.finalize();
    it.finalize_s = now_s() - t;
    spans.close(id);
  }
  std::string text;
  {
    const int id = spans.open("tool.render", "tool");
    const double t = now_s();
    text = report.render();
    it.render_s = now_s() - t;
    spans.close(id);
  }
  it.report_s = now_s() - r0;
  it.consumer_cpu_s = thread_cpu_s() - consumer0;

  it.callbacks = report.callback_invocations;
  it.stored = report.total_events;
  it.dropped = report.dropped_samples;
  for (const auto& entry : report.callstack_profile) it.profiled_joins += entry.samples;
  for (const auto& r : report.regions) {
    const double us = r.total_seconds / static_cast<double>(r.invocations) * 1e6;
    for (std::uint64_t k = 0; k < r.invocations; ++k) it.region_us.push_back(us);
  }
  if (text.empty()) it.failure = "empty rendered report";

  if (probe_layers) {
    // Per-layer probes outside the timed report window: the raw merge
    // (trace_data) and the offline unwind pass on its own.
    orca::perf::TraceData data;
    {
      const int id = spans.open("perf.merge", "perf");
      const double t = now_s();
      data = tool.trace_data();
      it.merge_s = now_s() - t;
      spans.close(id);
    }
    it.join_records = data.callstacks.size();
    for (const auto& rec : data.callstacks) it.frames += rec.frames.size();
    const int id = spans.open("unwind.reconstruct", "unwind");
    const double t = now_s();
    std::size_t rendered = 0;
    for (const auto& rec : data.callstacks) {
      rendered += orca::unwind::reconstruct(rec.frames, rec.region_fn).frames.size();
    }
    it.reconstruct_s = now_s() - t;
    spans.close(id);
    if (rendered == 0 && !data.callstacks.empty()) {
      it.failure = "unwind::reconstruct produced no frames";
    }
  }
}

/// Correctness checks common to every arm. `checksum_ref` is the first
/// checksum of the run (same inputs every iteration).
void check(Iter& it, Arm arm, double* checksum_ref) {
  if (!it.failure.empty()) return;
  auto fail = [&](std::string why) { it.failure = std::move(why); };
  if (it.regions != it.expected_regions) {
    return fail("region calls " + std::to_string(it.regions) + " != target " +
                std::to_string(it.expected_regions));
  }
  if (!std::isfinite(it.checksum)) return fail("checksum not finite");
  // The kernels' reductions combine thread partials in arrival order, so
  // the same input repeats to rounding, not bit for bit.
  if (std::isnan(*checksum_ref)) {
    *checksum_ref = it.checksum;
  } else if (std::abs(it.checksum - *checksum_ref) >
             kChecksumRelTol * std::abs(*checksum_ref)) {
    return fail("checksum changed between iterations of one input");
  }
  if (arm == Arm::kOff) return;
  if (it.callbacks != it.expected_callbacks) {
    return fail("callbacks " + std::to_string(it.callbacks) + " != expected " +
                std::to_string(it.expected_callbacks));
  }
  if (arm == Arm::kComm) {
    if (it.stored != 0 || it.dropped != 0) return fail("comm arm stored samples");
    return;
  }
  if (it.stored + it.dropped != it.callbacks) {
    return fail("books open: stored " + std::to_string(it.stored) + " + dropped " +
                std::to_string(it.dropped) + " != callbacks " +
                std::to_string(it.callbacks));
  }
  if (arm == Arm::kFull && it.profiled_joins != it.regions) {
    return fail("profiled joins " + std::to_string(it.profiled_joins) +
                " != region calls " + std::to_string(it.regions));
  }
}

void print_iter(const Iter& it) {
  const bool ok = it.failure.empty();
  // A failed iteration delivered nothing: every event it should have fired
  // counts as lost, also when attach failed early.
  std::uint64_t fired = 0;
  if (it.arm != Arm::kOff) {
    fired = ok ? it.callbacks : std::max(it.callbacks, it.expected_callbacks);
  }
  JsonLine("iter")
      .str("workload", kWorkload)
      .str("arm", arm_name(it.arm))
      .flag("traced", it.traced)
      .flag("warmup", it.warmup)
      .flag("ok", ok)
      .str("failure", it.failure)
      .num("setup_s", it.setup_s)
      .num("app_s", it.app_s)
      .num("report_s", it.report_s)
      .num("cpu_s", it.cpu_s)
      .num("mon_cpu_s", it.consumer_cpu_s)
      .num("peak_rss_mb", it.peak_rss_mb)
      .count("fired", fired)
      .count("delivered", it.arm == Arm::kOff || !ok ? 0 : it.stored)
      .num("region_p50_us", percentile(it.region_us, 0.50))
      .count("region_samples", it.region_us.size())
      .count("regions", it.regions)
      .num("checksum", it.checksum)
      .print();
}

// ---------------------------------------------------------------------------
// luhp-tool

std::uint64_t luhp_target() { return orca::npb::scaled_target(298959, kLuScale); }

Iter luhp_iteration(Arm arm, Spans& spans, bool probe_layers) {
  Iter it;
  it.arm = arm;
  it.traced = spans.enabled();
  auto& tool = PrototypeCollector::instance();
  reset_peak_rss();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const int setup_id = spans.open("setup", "workload");
  std::unique_ptr<orca::rt::Runtime> rt;
  {
    const int id = spans.open("runtime.ctor", "runtime");
    const double t = now_s();
    orca::rt::RuntimeConfig cfg;
    cfg.num_threads = kLuThreads;
    rt = std::make_unique<orca::rt::Runtime>(cfg);
    orca::rt::Runtime::make_current(rt.get());
    orca::omp::parallel([] {}, kLuThreads);  // worker-pool warm-up
    rt->quiesce();  // no warm-up straggler event may reach the tool
    it.ctor_s = now_s() - t;
    spans.close(id);
  }
  if (arm != Arm::kOff) {
    const int id = spans.open("tool.attach", "tool");
    const double t = now_s();
    if (!tool.attach(arm_options(arm))) it.failure = "tool attach failed";
    it.attach_s = now_s() - t;
    spans.close(id);
  }
  spans.close(setup_id);
  const double t1 = now_s();
  it.setup_s = t1 - t0;

  orca::npb::NpbOptions npb;
  npb.num_threads = kLuThreads;
  npb.scale = kLuScale;
  orca::npb::BenchResult result;
  {
    Scoped s(spans, "orca::omp::parallel x LU-HP", "app");
    result = orca::npb::run_lu_hp(npb);
    rt->quiesce();  // the last region's slave events land before detach
  }
  it.app_s = now_s() - t1;
  it.regions = result.region_calls;
  it.expected_regions = luhp_target();
  it.checksum = result.checksum;
  it.expected_callbacks = it.regions * events_per_region(kLuThreads);

  if (arm != Arm::kOff) {
    Scoped s(spans, "report", "workload");
    finish_report(it, spans, probe_layers);
  }
  it.cpu_s = process_cpu_s() - cpu0;
  it.peak_rss_mb = peak_rss_mb();
  orca::rt::Runtime::make_current(nullptr);
  rt.reset();
  tool.reset();  // teardown: the next set-up starts from an empty store
  return it;
}

// ---------------------------------------------------------------------------
// Driving loops

int untraced_loop(const Options& opts, Spans& spans) {
  double checksum_ref = std::nan("");
  const double deadline = now_s() + opts.seconds;
  // Iteration 0 warms caches and lazy state (symbol lookups, allocator
  // pools); it is checked like the rest but not measured.
  for (int n = 0; n <= kMinMeasured || now_s() < deadline; ++n) {
    Iter it = luhp_iteration(Arm::kFull, spans, false);
    it.warmup = n == 0;
    check(it, Arm::kFull, &checksum_ref);
    print_iter(it);
  }
  return 0;
}

double median_of(const std::vector<Iter>& its, double Iter::*field) {
  std::vector<double> v;
  for (const Iter& it : its) v.push_back(it.*field);
  return median(v);
}

/// Traced run: interleave the arms round by round for --seconds, then
/// derive the per-layer metrics from the arm medians and the spans.
int traced_breakdown(const Options& opts, Spans& spans) {
  double checksum_ref = std::nan("");
  std::map<std::string, std::vector<Iter>> by_arm;
  const double deadline = now_s() + opts.seconds;
  int rounds = 0;
  do {
    for (const Arm arm : {Arm::kOff, Arm::kComm, Arm::kNoCallstack, Arm::kFull}) {
      Iter it = luhp_iteration(arm, spans, arm == Arm::kFull);
      check(it, arm, &checksum_ref);
      print_iter(it);
      if (it.failure.empty()) by_arm[arm_name(arm)].push_back(std::move(it));
    }
    // The same full arm with span recording off prices the tracing itself.
    spans.enable(false);
    Iter plain = luhp_iteration(Arm::kFull, spans, false);
    spans.enable(true);
    check(plain, Arm::kFull, &checksum_ref);
    print_iter(plain);
    if (plain.failure.empty()) by_arm["full-untraced"].push_back(std::move(plain));
    ++rounds;
  } while (now_s() < deadline || rounds < 2);

  for (const char* arm : {"off", "comm", "nocs", "full", "full-untraced"}) {
    if (by_arm[arm].empty()) {
      std::fprintf(stderr, "perfbench: every %s iteration failed\n", arm);
      return 1;
    }
  }
  const auto& off = by_arm["off"];
  const auto& comm = by_arm["comm"];
  const auto& nocs = by_arm["nocs"];
  const auto& full = by_arm["full"];
  const auto& plain = by_arm["full-untraced"];
  const std::uint64_t n = full.size();
  const double t_off = median_of(off, &Iter::app_s);
  const double t_comm = median_of(comm, &Iter::app_s);
  const double t_nocs = median_of(nocs, &Iter::app_s);
  const double t_full = median_of(full, &Iter::app_s);
  const double callbacks = static_cast<double>(full.back().callbacks);
  const double joins = static_cast<double>(full.back().regions);

  std::vector<double> ctor, attach;
  for (const auto& [arm, its] : by_arm) {
    for (const Iter& it : its) {
      if (it.ctor_s > 0) ctor.push_back(it.ctor_s);
      if (it.attach_s > 0 && arm != "off") attach.push_back(it.attach_s);
    }
  }
  const std::string arms = "median of " + std::to_string(n) + " rounds";
  layer("runtime.ctor_s", median(ctor), "s", ctor.size(),
        "Runtime ctor + worker warm-up span");
  layer("tool.attach_s", median(attach), "s", attach.size(),
        "PrototypeCollector attach span");
  layer("runtime.off_app_s", t_off, "s", off.size(), "collector-off arm app_s, " + arms);
  layer("collector.dispatch_ns_per_event", (t_comm - t_off) / callbacks * 1e9, "ns",
        comm.size(), "(comm-only - off) app_s / callbacks");
  layer("tool.measure_ns_per_event", (t_nocs - t_comm) / callbacks * 1e9, "ns",
        nocs.size(), "(no-callstack - comm-only) app_s / callbacks");
  layer("unwind.capture_us_per_join", (t_full - t_nocs) / joins * 1e6, "us", n,
        "(full - no-callstack) app_s / joins");
  layer("perf.samples_stored", static_cast<double>(full.back().stored), "count", 1,
        "full arm, last round");
  layer("perf.samples_dropped", static_cast<double>(full.back().dropped), "count", 1,
        "full arm, last round");
  layer("unwind.join_records", static_cast<double>(full.back().join_records), "count", 1,
        "trace_data().callstacks, full arm");
  layer("unwind.frames", static_cast<double>(full.back().frames), "count", 1,
        "frames over all join records, full arm");
  layer("perf.merge_s", median_of(full, &Iter::merge_s), "s", n,
        "PrototypeCollector::trace_data span");
  std::vector<double> per_record;
  for (const Iter& it : full) {
    if (it.join_records > 0) {
      per_record.push_back(it.reconstruct_s / static_cast<double>(it.join_records) * 1e6);
    }
  }
  layer("unwind.reconstruct_us_per_record", median(per_record), "us", per_record.size(),
        "unwind::reconstruct loop span / join records");
  layer("tool.finalize_s", median_of(full, &Iter::finalize_s), "s", n,
        "PrototypeCollector::finalize span");
  layer("tool.render_s", median_of(full, &Iter::render_s), "s", n, "Report::render span");
  std::vector<double> pooled;
  for (const Iter& it : full) pooled.insert(pooled.end(), it.region_us.begin(), it.region_us.end());
  layer("region.p99_us", percentile(pooled, 0.99), "us", pooled.size(),
        "tool-profiled fork->join p99, pooled over the full arm");

  // Sec. V-B shares of the collection overhead (full - off).
  const double total = t_full - t_off;
  const double comm_part = std::max(0.0, t_comm - t_off);
  const double measure_part = std::max(0.0, t_nocs - t_comm);
  const double capture_part = std::max(0.0, t_full - t_nocs);
  const double pct = total > 0 ? 100.0 / total : 0;
  layer("share.comm_pct", comm_part * pct, "%", n, "runtime<->collector communication");
  layer("share.measure_pct", measure_part * pct, "%", n, "clock + store + region-id query");
  layer("share.capture_pct", capture_part * pct, "%", n, "join callstack capture");
  layer("share.measure_storage_pct", (measure_part + capture_part) * pct, "%", n,
        "measurement/storage = (full - comm) / (full - off); paper " +
            std::to_string(kPaperSharePct).substr(0, 5) + "%");
  layer("share.residual_pct", 100.0 - (comm_part + measure_part + capture_part) * pct, "%",
        n, "overhead not covered by the clamped arm deltas (arm noise)");
  layer("share.paper_measure_storage_pct", kPaperSharePct, "%", 1, "paper Sec. V-B");

  const double traced_e2e = median_of(full, &Iter::app_s) + median_of(full, &Iter::report_s);
  const double plain_e2e = median_of(plain, &Iter::app_s) + median_of(plain, &Iter::report_s);
  layer("trace.overhead_ms", (traced_e2e - plain_e2e) * 1e3, "ms", plain.size(),
        "traced - untraced full-arm app_s + report_s (includes the merge/"
        "reconstruct probes' cache effects)");
  return 0;
}

/// Layers the tool workload bypasses, reported as such so every traced run
/// prints the same metric set.
void print_fleet_layers_bypassed() {
  const char* why = "bypassed: no shm export or orcamon in this workload";
  for (const char* name :
       {"runtime.off_region_p50_us", "shm.mirror_ns_per_event", "shm.produced", "shm.read", "shm.lost",
        "orcamon.cpu_ns_per_event", "orcamon.idle_cpu_frac", "orcamon.drain_s",
        "orcamon.render_s", "orcamon.trace_write_s", "orcamon.trace_bytes",
        "gen.late_max_us"}) {
    layer(name, 0, "", 0, why);
  }
}

}  // namespace

int run_luhp_tool(const Options& opts, Spans& spans) {
  if (!check_thread_budget(kWorkload, kLuThreads)) return 3;
  if (!opts.trace) return untraced_loop(opts, spans);
  const int rc = traced_breakdown(opts, spans);
  print_fleet_layers_bypassed();
  return rc;
}

}  // namespace perfbench
