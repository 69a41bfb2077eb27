#include "perf/trace.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

namespace orca::perf {
namespace {

constexpr char kMagic[8] = {'O', 'R', 'C', 'A', 'T', 'R', 'C', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

bool write_bytes(std::FILE* f, const void* p, std::size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

bool read_bytes(std::FILE* f, void* p, std::size_t n) {
  return std::fread(p, 1, n, f) == n;
}

template <typename T>
bool write_pod(std::FILE* f, const T& v) {
  return write_bytes(f, &v, sizeof(T));
}

template <typename T>
bool read_pod(std::FILE* f, T* v) {
  return read_bytes(f, v, sizeof(T));
}

}  // namespace

bool write_trace(const std::string& path, const TraceData& data) {
  File f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return false;

  if (!write_bytes(f.get(), kMagic, sizeof(kMagic))) return false;
  const auto n_samples = static_cast<std::uint64_t>(data.samples.size());
  const auto n_stacks = static_cast<std::uint64_t>(data.callstacks.size());
  if (!write_pod(f.get(), n_samples) || !write_pod(f.get(), n_stacks)) {
    return false;
  }
  if (!write_bytes(f.get(), data.samples.data(),
                   data.samples.size() * sizeof(EventSample))) {
    return false;
  }
  // Addresses go to disk as 64-bit words, the pointers' own representation.
  static_assert(sizeof(const void*) == sizeof(std::uint64_t));
  for (const CallstackRecord& c : data.callstacks) {
    const auto depth = static_cast<std::uint64_t>(c.frames.size());
    if (!write_pod(f.get(), c.ticks) || !write_pod(f.get(), c.region_id) ||
        !write_pod(f.get(), c.region_fn) || !write_pod(f.get(), depth) ||
        !write_bytes(f.get(), c.frames.data(), depth * sizeof(const void*))) {
      return false;
    }
  }
  return true;
}

bool read_trace(const std::string& path, TraceData* out) {
  if (out == nullptr) return false;
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return false;

  char magic[8] = {};
  if (!read_bytes(f.get(), magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  std::uint64_t n_samples = 0;
  std::uint64_t n_stacks = 0;
  if (!read_pod(f.get(), &n_samples) || !read_pod(f.get(), &n_stacks)) {
    return false;
  }
  out->samples.resize(n_samples);
  if (!read_bytes(f.get(), out->samples.data(),
                  n_samples * sizeof(EventSample))) {
    return false;
  }
  out->callstacks.clear();
  out->callstacks.reserve(n_stacks);
  for (std::uint64_t i = 0; i < n_stacks; ++i) {
    CallstackRecord c;
    std::uint64_t depth = 0;
    if (!read_pod(f.get(), &c.ticks) || !read_pod(f.get(), &c.region_id) ||
        !read_pod(f.get(), &c.region_fn) || !read_pod(f.get(), &depth)) {
      return false;
    }
    if (depth > 1024) return false;  // malformed: implausible stack depth
    c.frames.resize(depth);
    if (!read_bytes(f.get(), c.frames.data(), depth * sizeof(const void*))) {
      return false;
    }
    out->callstacks.push_back(std::move(c));
  }
  return true;
}

bool write_csv(const std::string& path,
               const std::vector<EventSample>& samples) {
  File f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return false;
  if (std::fputs("ticks,event,tid,region_id\n", f.get()) < 0) return false;
  for (const EventSample& s : samples) {
    if (std::fprintf(f.get(), "%llu,%d,%d,%llu\n",
                     static_cast<unsigned long long>(s.ticks), s.event, s.tid,
                     static_cast<unsigned long long>(s.region_id)) < 0) {
      return false;
    }
  }
  return true;
}

}  // namespace orca::perf
