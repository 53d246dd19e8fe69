// Unit tests for the fork/join worker pool behind parallel multi-partition
// growth.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <vector>

namespace tlp {
namespace {

TEST(ThreadPool, SingleThreadPoolRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.run_indexed(16, [&order](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, RunIndexedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  pool.run_indexed(kN, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunIndexedIsABarrier) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  pool.run_indexed(32, [&](std::size_t) { ++done; });
  // After return, every invocation has completed.
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, RunIndexedRethrowsSmallestFailingIndex) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.run_indexed(16, [](std::size_t i) {
        if (i % 3 == 1) throw i;  // fails at 1, 4, 7, ...
      });
      FAIL() << "expected run_indexed to throw";
    } catch (const std::size_t& i) {
      EXPECT_EQ(i, 1u);  // deterministic despite arbitrary scheduling
    }
  }
}

TEST(ThreadPool, RunIndexedZeroTasksIsANoOp) {
  ThreadPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ZeroRequestsHardwareConcurrencyWithFloorOfOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> n{0};
  pool.run_indexed(8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

}  // namespace
}  // namespace tlp
