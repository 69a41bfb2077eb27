#include "tool/collector_tool.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/strutil.hpp"
#include "collector/names.hpp"
#include "runtime/ompc_api.h"
#include "unwind/backtrace.hpp"
#include "unwind/user_model.hpp"

namespace orca::tool {

PrototypeCollector& PrototypeCollector::instance() {
  static PrototypeCollector tool;
  return tool;
}

void PrototypeCollector::event_callback(OMP_COLLECTORAPI_EVENT event) {
  instance().on_event(event);
}

void PrototypeCollector::configure(ToolOptions opts) {
  opts_ = std::move(opts);
  counter_ = perf::HwTimeCounter(opts_.counter);
  if (store_ == nullptr) {
    store_ = std::make_unique<perf::SampleStore>(opts_.sample_capacity);
  }
  client_ = collector::Client::discover();
}

bool PrototypeCollector::attach(ToolOptions opts) {
  if (attached_) return false;
  configure(std::move(opts));
  if (!client_) return false;

  if (client_->start() != OMP_ERRCODE_OK) return false;
  for (const OMP_COLLECTORAPI_EVENT event : opts_.events) {
    // Optional events may be unsupported by the runtime; FORK/JOIN are
    // mandatory, so treat their failure (only) as fatal.
    const OMP_COLLECTORAPI_EC ec =
        client_->register_event(event, &PrototypeCollector::event_callback);
    if (ec != OMP_ERRCODE_OK &&
        (event == OMP_EVENT_FORK || event == OMP_EVENT_JOIN)) {
      client_->stop();
      return false;
    }
  }
  attached_ = true;
  return true;
}

void PrototypeCollector::detach() {
  if (!attached_) return;
  client_->stop();
  attached_ = false;
}

bool PrototypeCollector::pause() {
  return attached_ && client_->pause() == OMP_ERRCODE_OK;
}

bool PrototypeCollector::resume() {
  return attached_ && client_->resume() == OMP_ERRCODE_OK;
}

bool PrototypeCollector::passes_cheap_filters(std::uint64_t join_ticks) {
  // These run *before* the callstack capture: for filtered joins the tool
  // skips the capture entirely, which is where the cost lives.
  //
  // Small-region filter: compare this join against the matching fork.
  if (opts_.min_region_seconds > 0) {
    const std::uint64_t fork_ticks =
        last_fork_ticks_.load(std::memory_order_relaxed);
    if (fork_ticks != 0 &&
        counter_.to_seconds(join_ticks - fork_ticks) <
            opts_.min_region_seconds) {
      return false;
    }
  }
  // Sampling: keep one join in every `interval`.
  if (opts_.callstack_sampling_interval > 1) {
    const std::uint64_t n = join_count_.fetch_add(1, std::memory_order_relaxed);
    if (n % opts_.callstack_sampling_interval != 0) return false;
  }
  return true;
}

bool PrototypeCollector::passes_dedup(std::span<const void* const> frames) {
  // Calling-context dedup needs the captured stack: store each distinct
  // context once (FNV-1a over the frame addresses).
  if (!opts_.dedup_by_context) return true;
  const std::size_t hash = unwind::hash_frames(frames);
  std::scoped_lock lk(contexts_mu_);
  return seen_contexts_.insert(hash).second;
}

void PrototypeCollector::on_event(OMP_COLLECTORAPI_EVENT event) {
  callback_count_.fetch_add(1, std::memory_order_relaxed);
  if (!opts_.measure || store_ == nullptr) return;  // communication-only arm

  perf::SampleBuffer& lane = store_->local_buffer();
  perf::EventSample sample;
  sample.ticks = counter_.read();
  sample.event = static_cast<std::int32_t>(event);
  sample.tid = __ompc_get_global_thread_num();

  if (event == OMP_EVENT_FORK) {
    // Remembered for the small-region filter (fork/join both fire on the
    // master, so a relaxed store pairs correctly with the next join).
    last_fork_ticks_.store(sample.ticks, std::memory_order_relaxed);
  } else if (event == OMP_EVENT_JOIN) {
    // Region ids are retrieved "at the join event" (paper Sec. IV); the
    // master's team is still current when JOIN fires.
    if (opts_.query_region_ids) {
      const collector::Expected<unsigned long> id = client_->current_prid();
      if (id) sample.region_id = *id;
    }
    if (opts_.record_callstacks) {
      // Implementation-model callstack for the offline user-model pass
      // (paper Sec. V: "records the current implementation-model callstack
      // for each join event"). Selective collection (Sec. VI): the cheap
      // filters veto the capture itself; dedup vetoes the storage.
      if (!passes_cheap_filters(sample.ticks)) {
        filtered_count_.fetch_add(1, std::memory_order_relaxed);
      } else {
        const void* region_fn = opts_.use_region_fn_extension
                                    ? __ompc_get_current_region_fn()
                                    : nullptr;
        const unwind::Callstack stack = unwind::Callstack::capture(/*skip=*/2);
        if (passes_dedup(stack.frames())) {
          lane.record_callstack(sample.ticks, sample.region_id, region_fn,
                                stack.frames());
        } else {
          filtered_count_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  lane.record(sample);
}

perf::TraceData PrototypeCollector::trace_data() const {
  perf::TraceData data;
  if (store_ != nullptr) {
    data.samples = store_->merged_samples();
    data.callstacks = store_->merged_callstacks();
  }
  return data;
}

void PrototypeCollector::reset() {
  if (store_ != nullptr) store_->clear();
  callback_count_.store(0, std::memory_order_relaxed);
  filtered_count_.store(0, std::memory_order_relaxed);
  join_count_.store(0, std::memory_order_relaxed);
  last_fork_ticks_.store(0, std::memory_order_relaxed);
  std::scoped_lock lk(contexts_mu_);
  seen_contexts_.clear();
}

Report PrototypeCollector::finalize() const {
  Report report;
  report.callback_invocations =
      callback_count_.load(std::memory_order_relaxed);
  if (store_ == nullptr) return report;

  // End event -> the begin event it closes (FORK -> JOIN among them).
  constexpr int kEvents = ORCA_EVENT_EXT_LAST;
  static const std::array<int, kEvents> begin_of = [] {
    std::array<int, kEvents> table{};
    for (int b = 1; b < kEvents; ++b) {
      const auto begin = static_cast<OMP_COLLECTORAPI_EVENT>(b);
      const int end = collector::matching_end(begin);
      if (collector::is_begin_event(begin) && end < kEvents) table[end] = b;
    }
    return table;
  }();
  constexpr std::uint64_t kClosed = ~std::uint64_t{0};

  // A begin and its end fire on one OS thread, so pairing walks each lane
  // on its own, in recording order: MiniMPI rank masters all carry gtid 0,
  // but a JOIN never closes another rank's FORK. Regions are the gtid-0
  // master's fork->join intervals; every other pair adds time-in-construct
  // per (begin event, tid) (the "OpenMP specific performance metrics" of
  // Sec. VI — implicit/explicit barrier time, lock wait time, ...).
  std::unordered_map<unsigned long, RegionStats> regions;
  std::vector<IntervalStats> intervals;  // [tid * kEvents + begin event]
  std::vector<std::uint64_t> open;       // same index: begin tick or kClosed
  unwind::StackTally stacks;
  store_->for_each_lane([&](const perf::SampleBuffer& lane) {
    report.total_events += lane.samples().size();
    report.dropped_samples += lane.dropped();
    std::fill(open.begin(), open.end(), kClosed);
    for (const perf::EventSample& s : lane.samples()) {
      ++report.event_counts[s.event];
      const auto event = static_cast<OMP_COLLECTORAPI_EVENT>(s.event);
      const bool fork_join = event == OMP_EVENT_FORK || event == OMP_EVENT_JOIN;
      if (s.tid < 0 || s.event <= 0 || s.event >= kEvents ||
          (fork_join && s.tid != 0)) {
        continue;
      }
      const std::size_t base = static_cast<std::size_t>(s.tid) * kEvents;
      if (open.size() < base + kEvents) open.resize(base + kEvents, kClosed);
      if (collector::is_begin_event(event)) {
        open[base + static_cast<std::size_t>(s.event)] = s.ticks;
        continue;
      }
      const int begin = begin_of[static_cast<std::size_t>(s.event)];
      const std::size_t slot = base + static_cast<std::size_t>(begin);
      if (begin == 0 || open[slot] == kClosed) continue;  // unpaired end
      const double seconds =
          counter_.to_seconds(s.ticks - std::exchange(open[slot], kClosed));
      if (fork_join) {
        RegionStats& r = regions[s.region_id];
        r.region_id = s.region_id;
        r.min_seconds = r.invocations == 0 ? seconds
                                           : std::min(r.min_seconds, seconds);
        r.max_seconds = std::max(r.max_seconds, seconds);
        ++r.invocations;
        r.total_seconds += seconds;
        continue;
      }
      if (intervals.size() < open.size()) intervals.resize(open.size());
      IntervalStats& acc = intervals[slot];
      acc.begin_event = begin;
      acc.tid = s.tid;
      ++acc.intervals;
      acc.total_seconds += seconds;
    }
    for (const perf::StackHeader& h : lane.stacks()) {
      stacks.add(h.region_fn, lane.frames(h));
    }
  });

  report.regions.reserve(regions.size());
  for (const auto& [id, stats] : regions) report.regions.push_back(stats);
  std::sort(report.regions.begin(), report.regions.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.region_id < b.region_id;
            });
  for (std::size_t b = 1; b < kEvents; ++b) {
    for (std::size_t i = b; i < intervals.size(); i += kEvents) {
      if (intervals[i].intervals > 0) report.intervals.push_back(intervals[i]);
    }
  }

  // User-model callstack profile: reconstruct each distinct join-time stack
  // once and aggregate identical user views (the PerfSuite-extension
  // workflow of Sec. IV-F).
  for (auto& [rendered, count] : stacks.profile()) {
    report.callstack_profile.push_back({std::move(rendered), count});
  }
  return report;
}

std::string Report::render() const {
  std::string out;
  out += strfmt("events observed : %llu (dropped %llu)\n",
                static_cast<unsigned long long>(total_events),
                static_cast<unsigned long long>(dropped_samples));
  out += strfmt("callback calls  : %llu\n",
                static_cast<unsigned long long>(callback_invocations));

  TextTable events({"event", "count"});
  for (const auto& [event, count] : event_counts) {
    events.add_row({std::string(collector::to_string(
                        static_cast<OMP_COLLECTORAPI_EVENT>(event))),
                    strfmt("%llu", static_cast<unsigned long long>(count))});
  }
  out += "\nevent counts:\n" + events.render();

  // Region ids are per dynamic instance (paper IV-E: updated "each time a
  // team of threads executes a parallel region"), so long runs produce one
  // row per invocation; show the most expensive ones.
  constexpr std::size_t kMaxRegionRows = 25;
  std::vector<RegionStats> by_cost = regions;
  std::sort(by_cost.begin(), by_cost.end(),
            [](const RegionStats& a, const RegionStats& b) {
              return a.total_seconds > b.total_seconds;
            });
  if (by_cost.size() > kMaxRegionRows) by_cost.resize(kMaxRegionRows);
  TextTable regions_table(
      {"region id", "invocations", "total s", "min s", "max s"});
  for (const RegionStats& r : by_cost) {
    regions_table.add_row({strfmt("%lu", r.region_id),
                           strfmt("%llu", static_cast<unsigned long long>(
                                              r.invocations)),
                           strfmt("%.6f", r.total_seconds),
                           strfmt("%.6f", r.min_seconds),
                           strfmt("%.6f", r.max_seconds)});
  }
  out += strfmt("\nparallel regions (master fork->join), %zu of %zu shown:\n",
                by_cost.size(), regions.size()) +
         regions_table.render();

  if (!intervals.empty()) {
    TextTable interval_table({"construct", "tid", "intervals", "total s"});
    for (const IntervalStats& iv : intervals) {
      interval_table.add_row(
          {std::string(collector::to_string(
               static_cast<OMP_COLLECTORAPI_EVENT>(iv.begin_event))),
           strfmt("%d", iv.tid),
           strfmt("%llu", static_cast<unsigned long long>(iv.intervals)),
           strfmt("%.6f", iv.total_seconds)});
    }
    out += "\ntime in constructs (per thread):\n" + interval_table.render();
  }

  if (!callstack_profile.empty()) {
    out += "\nuser-model callstack profile (by join samples):\n";
    for (const CallstackProfileEntry& entry : callstack_profile) {
      out += strfmt("%llu samples at:\n%s",
                    static_cast<unsigned long long>(entry.samples),
                    entry.rendered.c_str());
    }
  }
  return out;
}

}  // namespace orca::tool
