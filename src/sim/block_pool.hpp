// BlockPool: a thread-local size-class freelist of heap blocks.
//
// The simulator's hottest allocations — coroutine frames, event
// closures too large for EventFn's inline buffer, and net::Frame bodies
// — come and go at a steady rate, so recycling their blocks keeps a
// steady-state run off the global allocator.  Blocks are bucketed by
// 64-byte size class; blocks above 1 KiB (no simulated workload makes
// one) fall through to operator new directly.
//
// Each Tag names its own pool with its own bins.  Pools stay apart on
// purpose: a workload that makes no blocks of one kind (Chrysalis builds
// no frames) keeps its warm bins to itself.
//
// Engines are strictly single-threaded, so a thread-local pool is
// exactly one pool per engine-carrying worker (sweep:: runs one engine
// per thread); block reuse order cannot alter simulation behaviour
// because no simulated decision reads an address.
//
// A block sitting in a bin is poisoned for AddressSanitizer and
// unpoisoned when handed out again, so a use after release is reported
// as it would be for a freed heap block.  Outside ASan both macros
// expand to nothing.
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <new>
#include <vector>

namespace sim {

template <typename Tag>
class BlockPool {
 public:
  static constexpr std::size_t kStride = 64;
  static constexpr std::size_t kClasses = 16;
  static constexpr std::size_t kBinCap = 128;  // blocks kept per class

  static void* allocate(std::size_t bytes) {
    const std::size_t cls = (bytes + kStride - 1) / kStride;
    if (cls == 0 || cls > kClasses) return ::operator new(bytes);
    std::vector<void*>& bin = bins()[cls - 1];
    if (!bin.empty()) {
      void* p = bin.back();
      bin.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
      return p;
    }
    return ::operator new(cls * kStride);
  }

  static void release(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = (bytes + kStride - 1) / kStride;
    if (cls == 0 || cls > kClasses) {
      ::operator delete(p);
      return;
    }
    std::vector<void*>& bin = bins()[cls - 1];
    if (bin.size() >= kBinCap) {
      ::operator delete(p);
      return;
    }
    // Growing the bin allocates; keep that out of the noexcept path by
    // reserving once (terminate on OOM is acceptable here).
    if (bin.capacity() == bin.size()) bin.reserve(kBinCap);
    bin.push_back(p);
    ASAN_POISON_MEMORY_REGION(p, cls * kStride);
  }

 private:
  struct Bins {
    std::vector<void*> by_class[kClasses];
    ~Bins() {
      for (std::size_t i = 0; i < kClasses; ++i) {
        for (void* p : by_class[i]) {
          ASAN_UNPOISON_MEMORY_REGION(p, (i + 1) * kStride);
          ::operator delete(p);
        }
      }
    }
  };
  static std::vector<void*>* bins() {
    thread_local Bins tls;
    return tls.by_class;
  }
};

}  // namespace sim
