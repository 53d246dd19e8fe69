#include "graph/intersect_kernels.hpp"

namespace tlp::intersect {
namespace {

// Both kernels take the shorter list first: na <= nb, na > 0.

std::size_t merge_scalar(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb) {
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

std::size_t gallop_scalar(const VertexId* a, std::size_t na, const VertexId* b,
                          std::size_t nb) {
  // Galloping intersection: both lists are sorted, so for each element of
  // the short list, exponential-search forward in the long list from the
  // previous match position. Total O(na · log(nb / na)).
  std::size_t count = 0;
  std::size_t pos = 0;  // cursor into b; only ever advances
  for (std::size_t k = 0; k < na; ++k) {
    const VertexId target = a[k];
    std::size_t lo = pos;
    std::size_t hi = pos;
    std::size_t step = 1;
    while (hi < nb && b[hi] < target) {
      lo = hi + 1;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    // Invariant: b[lo - 1] < target (or lo == pos) and b[hi] >= target
    // (or hi == nb); binary-search the gap.
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (b[mid] < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos = lo;
    if (pos == nb) break;  // everything left in a is larger too
    if (b[pos] == target) {
      ++count;
      ++pos;
    }
  }
  return count;
}

}  // namespace

std::size_t count(const VertexId* a, std::size_t na, const VertexId* b,
                  std::size_t nb) {
  if (na > nb) {
    const VertexId* t = a;
    a = b;
    b = t;
    const std::size_t tn = na;
    na = nb;
    nb = tn;
  }
  if (na == 0) return 0;
  return chooses_gallop(na, nb) ? gallop_scalar(a, na, b, nb)
                                : merge_scalar(a, na, b, nb);
}

}  // namespace tlp::intersect
