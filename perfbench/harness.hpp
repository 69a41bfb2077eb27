/// \file harness.hpp
/// Shared pieces of the benchmark harness: run options, the JSON-line
/// output protocol run.py reads, CPU/RSS probes, and the in-memory span
/// recorder used by traced runs.
///
/// Output protocol: every line the harness prints on stdout is one JSON
/// object with a "kind" field —
///   "iter"  : one iteration of the workload (end-to-end numbers plus the
///             correctness checks it passed or failed; "warmup" marks the
///             unmeasured first one);
///   "layer" : one per-layer metric of a traced run;
///   "info"  : free-form facts (thread budget, arm summaries, shares).
/// run.py turns these into the benchmark's result line.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch files (fleet trace, span trace)
};

/// Measured iterations every untraced run makes, however short --seconds.
constexpr int kMinMeasured = 3;

/// One JSON object on one line. Keys are emitted in insertion order.
class JsonLine {
 public:
  explicit JsonLine(const char* kind) { str("kind", kind); }

  JsonLine& str(const char* key, const std::string& v) {
    key_(key);
    body_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') body_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;
      body_ += c;
    }
    body_ += '"';
    return *this;
  }
  JsonLine& num(const char* key, double v) {
    key_(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    body_ += buf;
    return *this;
  }
  JsonLine& count(const char* key, std::uint64_t v) {
    key_(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonLine& flag(const char* key, bool v) {
    key_(key);
    body_ += v ? "true" : "false";
    return *this;
  }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  void key_(const char* key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
  }
  std::string body_;
};

/// One per-layer metric line of a traced run. `samples` is how many
/// measurements the value summarises; `note` says how it was derived (or
/// that the workload bypasses the layer).
inline void layer(const char* name, double value, const char* unit,
                  std::uint64_t samples, const std::string& note) {
  JsonLine("layer")
      .str("name", name)
      .num("value", value)
      .str("unit", unit)
      .count("samples", samples)
      .str("note", note)
      .print();
}

inline double now_s() { return orca::wall_seconds(); }

/// CPU seconds (user + system) of this process so far, all threads.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU seconds of the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Restart this process's peak-RSS high-water mark (Linux clear_refs "5"),
/// so each iteration reports its own peak rather than the run's.
inline void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident set of this process in MiB since the last reset
/// (VmHWM; falls back to the lifetime ru_maxrss).
inline double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// In-memory span recorder for traced runs: spans are kept in a vector and
/// written once, at exit, as Chrome/Perfetto trace_event JSON (the format
/// orcamon's merged fleet trace uses). Disabled recorders cost one branch.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string cat;
    double start_s;
    double end_s;
    int parent;  ///< index of the enclosing span, -1 at the top
  };

  void enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }

  /// Open a span; returns its index (or -1 when disabled).
  int open(const std::string& name, const std::string& cat) {
    if (!on_) return -1;
    spans_.push_back({name, cat, now_s(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  /// Close span `id` (a no-op for the -1 of a disabled recorder).
  void close(int id) {
    if (id < 0) return;
    spans_[id].end_s = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Record a span timed elsewhere (e.g. on MiniMPI rank threads).
  void add(const std::string& name, const std::string& cat, double start_s,
           double end_s) {
    if (on_) spans_.push_back({name, cat, start_s, end_s, -1});
  }

  std::size_t size() const { return spans_.size(); }

  /// Write every span as a complete ("X") trace event on one track.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const double base = spans_.empty() ? 0 : spans_.front().start_s;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"parent\":%d}}",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.cat.c_str(),
                   (s.start_s - base) * 1e6, (s.end_s - s.start_s) * 1e6,
                   s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Scoped {
 public:
  Scoped(Spans& spans, const char* name, const char* cat)
      : spans_(spans), id_(spans.open(name, cat)) {}
  ~Scoped() { spans_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Usable cores of this process (affinity mask), for the thread budget.
unsigned usable_cores();

/// Print the thread-budget fact and return whether `busy` fits.
bool check_thread_budget(const char* workload, unsigned busy);

int run_luhp_tool(const Options& opts, Spans& spans);
int run_fleet_paced(const Options& opts, Spans& spans);

}  // namespace perfbench
