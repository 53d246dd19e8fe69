// Portable shims for the SIMD / prefetch layer (no intrinsics leak out of
// this header; the vector kernels themselves live in
// graph/intersect_kernels.cpp behind per-function target attributes).
//
// Three concerns, one seam:
//   * Compile-time gating: TLP_SIMD_X86 is 1 only on x86-64 builds that did
//     NOT opt out via -DTLP_DISABLE_SIMD=ON (the CMake option defines the
//     TLP_DISABLE_SIMD macro). Everything vector-shaped in the tree must
//     sit behind this macro so the scalar-only configuration keeps
//     compiling on any target.
//   * Runtime capability queries: cpu_supports_* wrap __builtin_cpu_supports
//     and are safe to call on every platform (they return false where the
//     ISA cannot exist).
//   * Software prefetch: prefetch_read/prefetch_write compile to
//     PREFETCHT0 (or nothing) and never fault, so they may be issued for
//     addresses that are about to be range-checked — including pages of an
//     mmap-tier CSR that were never touched.
//
// Alignment rule (ASan/UBSan contract): vector kernels must only use the
// unaligned intrinsic load/store forms (_mm*_loadu_*/_mm*_storeu_*) or
// std::memcpy. Nothing in this codebase guarantees 16/32-byte alignment of
// adjacency spans — the mmap tier's sections are 64-byte aligned, but a
// neighbor list may start anywhere inside one.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && !defined(TLP_DISABLE_SIMD)
#define TLP_SIMD_X86 1
#else
#define TLP_SIMD_X86 0
#endif

namespace tlp::simd {

/// True iff the running CPU supports AVX2 (always false on non-x86 or
/// TLP_DISABLE_SIMD builds).
inline bool cpu_supports_avx2() {
#if TLP_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// Hints the cache hierarchy that `p` will be read soon. Never faults;
/// a null or wild pointer is a wasted hint, not an error.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Hints that `p` will be written soon (read-for-ownership).
inline void prefetch_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace tlp::simd
