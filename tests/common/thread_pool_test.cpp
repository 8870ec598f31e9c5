// common::ThreadPool: the fork-join pool under the cluster's parallel
// driver. Pinned here: every index runs exactly once, parallel_for is a
// true barrier (reusable back to back), exception propagation picks the
// LOWEST-index error deterministically, and shutdown is clean whether or
// not any work was ever issued.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pas::common {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.thread_count(), 4u);

  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, EveryGrainCoversEveryIndexExactlyOnce) {
  // Chunked hand-out property: whatever the grain (including grain > n,
  // grain == n, and the 0 -> 1 normalization), every index in [0, n) runs
  // exactly once — chunking affects scheduling only, never coverage.
  ThreadPool pool{4};
  for (const std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                  std::size_t{8}, std::size_t{64}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, grain);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "grain " << grain << " n " << n << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ResultsIndependentOfGrain) {
  // Same pure-function-of-i check as the thread-assignment test, but
  // across grains: the output vector must not depend on the chunk size.
  constexpr std::size_t kN = 257;
  ThreadPool pool{4};
  auto run = [&](std::size_t grain) {
    std::vector<std::uint64_t> out(kN, 0);
    pool.parallel_for(kN, [&](std::size_t i) { out[i] = i * i + 7 * i + 3; }, grain);
    return out;
  };
  const auto baseline = run(1);
  EXPECT_EQ(baseline, run(2));
  EXPECT_EQ(baseline, run(8));
  EXPECT_EQ(baseline, run(64));
  EXPECT_EQ(baseline, run(1000));  // one chunk swallows the whole range
}

TEST(ThreadPoolTest, ResultsIndependentOfThreadAssignment) {
  // body(i) writes a pure function of i into slot i — the result vector
  // must come out identical however the pool interleaved the work, and
  // identical to the single-threaded pool.
  constexpr std::size_t kN = 257;  // not a multiple of the thread count
  auto run = [](std::size_t threads) {
    ThreadPool pool{threads};
    std::vector<std::uint64_t> out(kN, 0);
    pool.parallel_for(kN, [&](std::size_t i) { out[i] = i * i + 7 * i + 3; });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(0));  // hardware concurrency
}

TEST(ThreadPoolTest, BarrierAllowsImmediateReuse) {
  // Consecutive parallel_for calls share the job slots; the per-call
  // barrier must keep generation k's stragglers out of generation k+1.
  ThreadPool pool{4};
  std::vector<int> data(64, 0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(data.size(), [&](std::size_t i) { ++data[i]; });
  }
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], 200) << "index " << i;
}

TEST(ThreadPoolTest, FewerTasksThanThreads) {
  ThreadPool pool{8};
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, PropagatesLowestIndexException) {
  ThreadPool pool{4};
  // Indices 10, 100 and 500 all throw; whatever thread got there first,
  // the caller must see index 10 — the deterministic choice.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      pool.parallel_for(1000, [](std::size_t i) {
        if (i == 10 || i == 100 || i == 500)
          throw std::runtime_error("boom at " + std::to_string(i));
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 10");
    }
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWinsAtEveryGrain) {
  // The deterministic-error contract must hold however indices are
  // chunked: two throwers land in the same chunk at large grains, in
  // different chunks at small ones — index 17 must surface either way.
  ThreadPool pool{4};
  for (const std::size_t grain : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                                  std::size_t{64}}) {
    try {
      pool.parallel_for(200, [](std::size_t i) {
        if (i == 17 || i == 18 || i == 150)
          throw std::runtime_error("boom at " + std::to_string(i));
      }, grain);
      FAIL() << "parallel_for swallowed the exception at grain " << grain;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 17") << "grain " << grain;
    }
  }
}

TEST(ThreadPoolTest, ExceptionDoesNotSkipOtherIndices) {
  ThreadPool pool{4};
  std::vector<std::atomic<int>> hits(100);
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 0) throw std::runtime_error("first index failed");
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error&) {
  }
  // The failure surfaced after the barrier, so every other index still ran.
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, InlinePathKeepsExceptionContract) {
  // The single-thread (inline) configuration must honor the same
  // semantics as the pooled one: all indices run, lowest index surfaces.
  ThreadPool pool{1};
  std::vector<int> hits(50, 0);
  try {
    pool.parallel_for(50, [&](std::size_t i) {
      ++hits[i];
      if (i == 3 || i == 40) throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 3");
  }
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPoolTest, SingleChunkJobRunsInlineOnAPooledExecutor) {
  // A job of at most one chunk (n <= grain) runs on the caller: the
  // workers would find nothing to claim. Coverage and the lowest-index
  // exception contract are those of the pooled path.
  ThreadPool pool{4};
  const auto caller = std::this_thread::get_id();
  for (const auto& [n, grain] : {std::pair<std::size_t, std::size_t>{8, 8},
                                 {5, 64},
                                 {1, 1}}) {
    std::vector<int> hits(n, 0);
    try {
      pool.parallel_for(
          n,
          [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(), caller) << "n " << n << " index " << i;
            ++hits[i];
            if (i == n - 1 || i + 2 == n) throw std::runtime_error("boom at " + std::to_string(i));
          },
          grain);
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "boom at " + std::to_string(n == 1 ? 0 : n - 2));
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "n " << n << " index " << i;
  }
  // One index past a chunk still goes through the pool and covers every
  // index once.
  std::vector<std::atomic<int>> hits(9);
  pool.parallel_for(9, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, BodyOfAnyCaptureSizeRunsEveryIndexOnce) {
  // parallel_for borrows its body for the call, so a capture far larger
  // than a few pointers (here 128 bytes by value) is invoked in place, with
  // the same coverage and lowest-index exception contract.
  ThreadPool pool{4};
  std::array<std::uint64_t, 16> weights{};
  for (std::size_t k = 0; k < weights.size(); ++k) weights[k] = k + 1;
  constexpr std::size_t kN = 1000;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kN; ++i) expected += weights[i % weights.size()];
  for (const std::size_t grain : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(kN, [weights, &hits, &sum](std::size_t i) {
      hits[i].fetch_add(1);
      sum.fetch_add(weights[i % weights.size()]);
    }, grain);
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "grain " << grain << " index " << i;
    EXPECT_EQ(sum.load(), expected) << "grain " << grain;

    std::vector<std::atomic<int>> thrown(kN);
    try {
      pool.parallel_for(kN, [weights, &thrown](std::size_t i) {
        thrown[i].fetch_add(1);
        if (i == 21 || i == 22 || i == 700)
          throw std::runtime_error("boom at " + std::to_string(weights[i % weights.size()] + i));
      }, grain);
      FAIL() << "parallel_for swallowed the exception at grain " << grain;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 27") << "grain " << grain;  // 21 + weights[5]
    }
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_EQ(thrown[i].load(), 1) << "grain " << grain << " index " << i;
  }
}

TEST(ThreadPoolTest, PoolStaysUsableAfterException) {
  ThreadPool pool{4};
  // 32 indices at the default grain: four chunks, so the pooled path throws.
  EXPECT_THROW(pool.parallel_for(32, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ZeroTaskCallAndIdleShutdown) {
  {
    ThreadPool pool{4};
    pool.parallel_for(0, [](std::size_t) { FAIL() << "body ran for n = 0"; });
  }  // destructor with zero tasks ever run must not hang
  {
    ThreadPool idle{8};  // never used at all
  }
  SUCCEED();
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.parallel_for(16, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(ThreadPoolTest, ZeroResolvesToHardwareThreads) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.thread_count(), ThreadPool::hardware_threads());
  EXPECT_GE(pool.thread_count(), 1u);
}

}  // namespace
}  // namespace pas::common
