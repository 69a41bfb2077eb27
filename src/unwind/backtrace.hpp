/// \file backtrace.hpp
/// Callstack capture — ORCA's stand-in for libunwind (paper Sec. IV-F:
/// "Call-stack retrieval, using the open source library libunwind. New API
/// entry points, callable by the collector, provide instruction pointer
/// values for each stack frame at the point of inquiry").
///
/// The capture walks the frame-pointer chain (the build compiles with
/// -fno-omit-frame-pointer) inside the calling thread's stack, whose range
/// `pthread_getattr_np` gives once per thread. It stops at a misaligned or
/// non-increasing frame address, or at a return address that is null (or
/// in the first page) or points into the stack: code built without frame
/// pointers, such as libc's start-up frames, ends the walk there. What the
/// paper's extension adds — a bounded, allocation-free snapshot callable
/// from an event callback — is preserved.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace orca::unwind {

/// Maximum frames a single capture retains. Deep enough for the NPB call
/// chains; bounded so captures stay allocation-free.
inline constexpr std::size_t kMaxFrames = 64;

/// A captured implementation-model callstack: raw instruction pointers,
/// innermost first.
class Callstack {
 public:
  /// Capture the calling thread's stack, skipping `skip` innermost frames.
  /// Frame 0 of capture(0) is the return address into capture()'s caller.
  static Callstack capture(int skip = 0) noexcept;

  std::size_t depth() const noexcept { return depth_; }
  bool empty() const noexcept { return depth_ == 0; }

  const void* frame(std::size_t i) const noexcept {
    // depth_ <= kMaxFrames always; the second test keeps the bound visible
    // to static analysis.
    return i < depth_ && i < kMaxFrames ? frames_[i] : nullptr;
  }

  std::span<const void* const> frames() const noexcept {
    return {frames_.data(), depth_};
  }

  /// Copy out as a vector (for offline storage).
  std::vector<const void*> to_vector() const {
    // Parenthesized on purpose: with braces, the two iterators would be
    // treated as an initializer_list<const void*> of their own addresses.
    return std::vector<const void*>(
        frames_.begin(), frames_.begin() + static_cast<long>(depth_));
  }

 private:
  std::array<const void*, kMaxFrames> frames_{};
  std::size_t depth_ = 0;
};

/// FNV-1a over frame addresses, continuing from `seed`: the identity the
/// tool's calling-context dedup and the offline interning key on.
inline std::size_t hash_frames(std::span<const void* const> frames,
                               std::size_t seed = 0xcbf29ce484222325ULL) {
  for (const void* ip : frames) {
    seed = (seed ^ reinterpret_cast<std::size_t>(ip)) * 0x100000001b3ULL;
  }
  return seed;
}

}  // namespace orca::unwind
