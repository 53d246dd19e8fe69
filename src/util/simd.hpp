// Software prefetch shim: prefetch_read compiles to PREFETCHT0 (or nothing)
// and never faults, so it may be issued for addresses that are about to be
// range-checked — including pages of an mmap-tier CSR that were never
// touched.
#pragma once

namespace tlp::simd {

/// Hints the cache hierarchy that `p` will be read soon. Never faults;
/// a null or wild pointer is a wasted hint, not an error.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace tlp::simd
