#include "unwind/backtrace.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstdint>

namespace orca::unwind {

namespace {

// The calling thread's stack, [lo, hi), read on its first capture; a failed
// read leaves the empty range [1, 1), which stops every walk at once.
thread_local std::uintptr_t t_stack_lo = 0;
thread_local std::uintptr_t t_stack_hi = 0;

void read_stack_range() noexcept {
  t_stack_lo = t_stack_hi = 1;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* base = nullptr;
  std::size_t size = 0;
  if (pthread_attr_getstack(&attr, &base, &size) == 0) {
    t_stack_lo = reinterpret_cast<std::uintptr_t>(base);
    t_stack_hi = t_stack_lo + size;
  }
  pthread_attr_destroy(&attr);
}

}  // namespace

// noinline: frame 0 must be the return address into capture()'s caller.
// no_sanitize_address: the walk reads saved frame pointers and return
// addresses of live frames, which ASan does not know as objects.
__attribute__((noinline, no_sanitize_address)) Callstack Callstack::capture(
    int skip) noexcept {
  if (t_stack_hi == 0) read_stack_range();
  const std::uintptr_t lo = t_stack_lo;
  const std::uintptr_t hi = t_stack_hi;
  Callstack cs;
  auto to_skip = static_cast<std::size_t>(std::max(0, skip));
  auto fp = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  // A frame record: [fp] = caller's frame pointer, [fp + 8] = return
  // address. Both words must lie inside this thread's stack.
  while (cs.depth_ < kMaxFrames && fp >= lo && fp + 2 * sizeof(void*) <= hi &&
         fp % sizeof(void*) == 0) {
    const auto* record = reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret = record[1];
    // No code lives in the first page: a return address there is null or
    // a small integer left in a register by code without frame pointers.
    if (ret < 4096 || (ret >= lo && ret < hi)) break;
    if (to_skip > 0) {
      --to_skip;
    } else {
      cs.frames_[cs.depth_++] = reinterpret_cast<const void*>(ret);
    }
    if (record[0] <= fp) break;  // stacks grow down: callers sit above
    fp = record[0];
  }
  return cs;
}

}  // namespace orca::unwind
