/// \file user_model.hpp
/// User-model callstack reconstruction (paper Sec. IV-F).
///
/// Performance data arrives coupled to the *implementation model*: the
/// callstack captured inside an event callback runs through the collector
/// tool, the registry dispatch, and the runtime's fork machinery before it
/// reaches any user code. "Reconstructing the callstack to provide a user
/// view of the program is done offline after the application finishes"
/// (Sec. IV): this module is that offline pass. It strips the runtime and
/// collector frames, symbolizes the rest, and — when the sample carries the
/// region's outlined-procedure address — plants the pragma's source
/// location as the innermost user frame.
/// StackTally runs it once per distinct raw stack, symbolizing each
/// instruction pointer once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "unwind/backtrace.hpp"
#include "unwind/symbolize.hpp"

namespace orca::unwind {

/// A reconstructed user-model callstack: innermost frame first.
struct UserCallstack {
  std::vector<SymbolInfo> frames;

  /// Multi-line rendering, innermost first, one frame per line.
  std::string render() const;
};

/// Offline reconstruction of one sample.
///
/// `raw` is the stored implementation-model stack (innermost first);
/// `region_fn` is the outlined procedure of the parallel region the sample
/// belongs to (nullptr when unknown — e.g. a sample taken outside any
/// region). Runtime/collector frames are dropped; the region source (if
/// known) becomes the innermost frame, mirroring how the user wrote the
/// pragma rather than how the compiler outlined it.
UserCallstack reconstruct(const std::vector<const void*>& raw,
                          const void* region_fn = nullptr);

/// Counts raw stacks by (region_fn, frames): the user-model profile then
/// reconstructs each distinct stack once.
class StackTally {
 public:
  /// `frames` is not copied: it must stay valid until profile() returns.
  void add(const void* region_fn, std::span<const void* const> frames) {
    ++counts_[{region_fn, frames}];
  }

  /// Rendered user-model stack → samples, summed over raw stacks that
  /// render alike; most samples first, ties in rendered-string order.
  std::vector<std::pair<std::string, std::uint64_t>> profile() const;

 private:
  struct Key {
    const void* region_fn;
    std::span<const void* const> frames;
    bool operator==(const Key& o) const noexcept {
      return region_fn == o.region_fn &&
             std::equal(frames.begin(), frames.end(), o.frames.begin(),
                        o.frames.end());
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return hash_frames(k.frames, reinterpret_cast<std::size_t>(k.region_fn));
    }
  };
  std::unordered_map<Key, std::uint64_t, KeyHash> counts_;
};

}  // namespace orca::unwind
