#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "core/record.h"
#include "par/loser_tree.h"
#include "par/multiway_merge.h"
#include "par/parallel_sort.h"
#include "par/thread_pool.h"
#include "util/random.h"

namespace demsort::par {
namespace {

using demsort::core::KV16;
using KVLess = demsort::core::RecordTraits<KV16>::Less;

struct IntLess {
  bool operator()(int a, int b) const { return a < b; }
};

// --------------------------------------------------------- ThreadPool ----

TEST(ThreadPoolTest, InlineWhenZeroThreads) {
  ThreadPool pool(0);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, RunsAllTasksOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SequentialBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(7, [&](size_t) { count++; });
    EXPECT_EQ(count.load(), 7);
  }
}

TEST(ThreadPoolTest, ParallelChunksCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelChunks(0, 1000, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyWorkIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });
  pool.ParallelChunks(5, 5, [&](size_t, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, NumThreadsCountsTheCaller) {
  EXPECT_EQ(ThreadPool(0).num_threads(), 1u);
  for (size_t t : {1, 2, 4}) EXPECT_EQ(ThreadPool(t).num_threads(), t);
}

// Back-to-back ParallelFor calls publish batches that live at the same stack
// address. Each call's two tasks can only finish together: each waits
// (bounded) until both have started, so the call passes only if the pool's
// one worker joined it rather than sleeping through it and leaving both
// tasks to the caller.
TEST(ThreadPoolTest, WorkersJoinBackToBackBatches) {
  ThreadPool pool(2);
  for (int call = 0; call < 200; ++call) {
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    bool met = true;
    pool.ParallelFor(2, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return started == 2; })) {
        met = false;
      }
    });
    ASSERT_TRUE(met) << "call " << call << ": both tasks ran on one thread";
  }
}

// --------------------------------------------------------- RecordTraits ---

TEST(RecordTraitsTest, Gray100LessAgreesWithMemcmp) {
  using demsort::core::Gray100;
  using Traits = demsort::core::RecordTraits<Gray100>;
  const Traits::Less less;
  auto check = [&](const Gray100& a, const Gray100& b) {
    EXPECT_EQ(less(a, b), std::memcmp(a.key.data(), b.key.data(), 10) < 0);
    EXPECT_EQ(less(b, a), std::memcmp(b.key.data(), a.key.data(), 10) < 0);
  };
  std::mt19937_64 rng(15);
  auto random_key = [&] {
    Gray100 r;
    for (uint8_t& byte : r.key) byte = static_cast<uint8_t>(rng());
    return r;
  };
  for (int i = 0; i < 10000; ++i) check(random_key(), random_key());

  // Keys equal up to byte 7, 8 or 9: the last prefix byte and the tail,
  // including differences in the top bit.
  for (size_t pos : {7, 8, 9}) {
    for (int i = 0; i < 1000; ++i) {
      Gray100 a = random_key();
      Gray100 b = a;
      b.key[pos] = static_cast<uint8_t>(rng());
      check(a, b);
    }
    for (auto [lo, hi] : {std::pair<uint8_t, uint8_t>{0x7F, 0x80},
                          std::pair<uint8_t, uint8_t>{0x00, 0xFF},
                          std::pair<uint8_t, uint8_t>{0xFE, 0xFF}}) {
      Gray100 a = random_key();
      Gray100 b = a;
      a.key[pos] = lo;
      b.key[pos] = hi;
      check(a, b);
      EXPECT_TRUE(less(a, b)) << "byte " << pos;
    }
  }

  // Equal keys are unordered, whatever the payloads.
  Gray100 a = random_key();
  Gray100 b = a;
  b.payload.fill(0xAB);
  check(a, b);
  EXPECT_FALSE(less(a, b));
  EXPECT_FALSE(less(b, a));

  // The sentinel ties with the all-0xFF key and is below no key.
  Gray100 ff;
  ff.key.fill(0xFF);
  ff.payload.fill(0x01);
  const Gray100 sentinel = Traits::MaxSentinel();
  check(sentinel, ff);
  EXPECT_FALSE(less(sentinel, ff));
  EXPECT_FALSE(less(ff, sentinel));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(less(sentinel, random_key()));
}

// ---------------------------------------------------------- LoserTree ----

TEST(LoserTreeTest, SingleSource) {
  LoserTree<int, IntLess> tree(1);
  tree.InitSource(0, 7);
  tree.Build();
  EXPECT_FALSE(tree.Empty());
  EXPECT_EQ(tree.Winner(), 7);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, AllSourcesExhausted) {
  LoserTree<int, IntLess> tree(3);
  tree.Build();
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, MergesTwoSources) {
  LoserTree<int, IntLess> tree(2);
  tree.InitSource(0, 2);
  tree.InitSource(1, 1);
  tree.Build();
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.Winner(), 1);
  tree.ReplaceWinner(3);
  EXPECT_EQ(tree.Winner(), 2);
}

TEST(LoserTreeTest, TieBreaksBySourceIndex) {
  LoserTree<int, IntLess> tree(4);
  for (size_t s = 0; s < 4; ++s) tree.InitSource(s, 5);
  tree.Build();
  for (size_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(tree.WinnerSource(), expect);
    tree.ExhaustWinner();
  }
  EXPECT_TRUE(tree.Empty());
}

TEST(LoserTreeTest, NonPowerOfTwoSources) {
  for (size_t k : {3u, 5u, 6u, 7u, 9u, 13u}) {
    LoserTree<int, IntLess> tree(k);
    for (size_t s = 0; s < k; ++s) {
      tree.InitSource(s, static_cast<int>(k - s));
    }
    tree.Build();
    // Winner should be the largest s (smallest value k-s).
    EXPECT_EQ(tree.WinnerSource(), k - 1) << "k=" << k;
  }
}

// ------------------------------------------------------ MultiwayMerge ----

std::vector<std::vector<int>> MakeSortedSequences(size_t k, size_t avg_len,
                                                  uint64_t seed,
                                                  int key_range = 1000000) {
  Rng rng(seed);
  std::vector<std::vector<int>> seqs(k);
  for (auto& s : seqs) {
    size_t len = rng.Below(2 * avg_len + 1);
    s.resize(len);
    for (auto& x : s) x = static_cast<int>(rng.Below(key_range));
    std::sort(s.begin(), s.end());
  }
  return seqs;
}

TEST(MultiwayMergeTest, MatchesStdSort) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto seqs = MakeSortedSequences(1 + seed % 7, 50, seed);
    std::vector<std::span<const int>> spans;
    std::vector<int> expect;
    for (auto& s : seqs) {
      spans.emplace_back(s.data(), s.size());
      expect.insert(expect.end(), s.begin(), s.end());
    }
    std::sort(expect.begin(), expect.end());
    std::vector<int> out(expect.size());
    size_t n = MultiwayMerge<int, IntLess>(spans, out.data());
    EXPECT_EQ(n, expect.size());
    EXPECT_EQ(out, expect);
  }
}

TEST(MultiwayMergeTest, EmptyInputs) {
  std::vector<std::span<const int>> spans;
  std::vector<int> out;
  EXPECT_EQ((MultiwayMerge<int, IntLess>(spans, out.data())), 0u);

  std::vector<int> empty;
  spans.assign(3, std::span<const int>(empty.data(), 0));
  EXPECT_EQ((MultiwayMerge<int, IntLess>(spans, out.data())), 0u);
}

TEST(MultiwayMergeTest, HeavyDuplicates) {
  auto seqs = MakeSortedSequences(5, 200, 99, /*key_range=*/3);
  std::vector<std::span<const int>> spans;
  std::vector<int> expect;
  for (auto& s : seqs) {
    spans.emplace_back(s.data(), s.size());
    expect.insert(expect.end(), s.begin(), s.end());
  }
  std::sort(expect.begin(), expect.end());
  std::vector<int> out(expect.size());
  MultiwayMerge<int, IntLess>(spans, out.data());
  EXPECT_EQ(out, expect);
}

TEST(MultiwayMergeTest, StableAcrossSources) {
  // Equal keys must come out in source order: merge KV16 with equal keys
  // and per-source values; output values must be grouped by source.
  std::vector<std::vector<KV16>> seqs(3);
  for (uint64_t s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) seqs[s].push_back({7, s});
  }
  std::vector<std::span<const KV16>> spans;
  for (auto& s : seqs) spans.emplace_back(s.data(), s.size());
  std::vector<KV16> out(12);
  MultiwayMerge<KV16, KVLess>(spans, out.data());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(out[i].value, static_cast<uint64_t>(i / 4));
  }
}

TEST(ParallelMultiwayMergeTest, MatchesSequential) {
  ThreadPool pool(4);
  auto seqs = MakeSortedSequences(6, 5000, 1234);
  std::vector<std::span<const int>> spans;
  size_t total = 0;
  for (auto& s : seqs) {
    spans.emplace_back(s.data(), s.size());
    total += s.size();
  }
  std::vector<int> seq_out(total), par_out(total);
  MultiwayMerge<int, IntLess>(spans, seq_out.data());
  ParallelMultiwayMerge<int, IntLess>(pool, spans, par_out.data());
  EXPECT_EQ(par_out, seq_out);
}

// ------------------------------------------------------- ParallelSort ----

class ParallelSortParamTest
    : public ::testing::TestWithParam<std::tuple<int, size_t, int>> {};

TEST_P(ParallelSortParamTest, MatchesStdSort) {
  auto [threads, n, key_range] = GetParam();
  ThreadPool pool(threads);
  Rng rng(n * 31 + threads);
  std::vector<KV16> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i].key = rng.Below(static_cast<uint64_t>(key_range));
    data[i].value = i;
  }
  std::vector<KV16> expect = data;
  std::stable_sort(expect.begin(), expect.end(), KVLess());
  ParallelSort<KV16, KVLess>(pool, std::span<KV16>(data));
  ASSERT_EQ(data.size(), expect.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(data[i].key, expect[i].key) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortParamTest,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values<size_t>(0, 1, 100, 10000, 50000),
                       ::testing::Values(2, 1000000)));

TEST(ParallelSortTest, AlreadySorted) {
  ThreadPool pool(4);
  std::vector<KV16> data(20000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = {i, i};
  ParallelSort<KV16, KVLess>(pool, std::span<KV16>(data));
  for (size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i].key, i);
}

TEST(ParallelSortTest, ReverseSorted) {
  ThreadPool pool(2);
  std::vector<KV16> data(30000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = {data.size() - i, i};
  }
  ParallelSort<KV16, KVLess>(pool, std::span<KV16>(data));
  for (size_t i = 1; i < data.size(); ++i) {
    EXPECT_LE(data[i - 1].key, data[i].key);
  }
}

// --------------------------------------------------- SentinelLoserTree ----

constexpr int kIntSentinel = std::numeric_limits<int>::max();

TEST(SentinelLoserTreeTest, SingleSource) {
  SentinelLoserTree<int, IntLess> tree(1, kIntSentinel);
  tree.InitSource(0, 7);
  tree.Build();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_EQ(tree.Winner(), 7);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(SentinelLoserTreeTest, LiveSourceBeatsSentinelValuedItem) {
  // A real item EQUAL to the sentinel must still win against exhausted
  // sources: exhaustion biases the tie-break rank, not the item compare.
  SentinelLoserTree<int, IntLess> tree(3, kIntSentinel);
  tree.InitSource(0, 1);
  tree.InitSource(2, kIntSentinel);  // real item at the sentinel value
  tree.Build();
  EXPECT_EQ(tree.live(), 2u);
  EXPECT_EQ(tree.WinnerSource(), 0u);
  tree.ExhaustWinner();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_EQ(tree.WinnerSource(), 2u);
  EXPECT_EQ(tree.Winner(), kIntSentinel);
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

TEST(SentinelLoserTreeTest, TieBreaksBySourceIndex) {
  SentinelLoserTree<int, IntLess> tree(4, kIntSentinel);
  for (size_t s = 0; s < 4; ++s) tree.InitSource(s, 5);
  tree.Build();
  for (size_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(tree.WinnerSource(), expect);
    tree.ExhaustWinner();
  }
  EXPECT_TRUE(tree.Empty());
}

TEST(SentinelLoserTreeTest, RunnerUpSourceIsSecondBest) {
  SentinelLoserTree<int, IntLess> tree(5, kIntSentinel);
  int heads[] = {40, 10, 30, 20, 50};
  for (size_t s = 0; s < 5; ++s) tree.InitSource(s, heads[s]);
  tree.Build();
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.RunnerUpSource(), 3u);  // head 20 is second-smallest
  tree.ReplaceWinner(25);
  EXPECT_EQ(tree.WinnerSource(), 3u);
  EXPECT_EQ(tree.RunnerUpSource(), 1u);  // now 25 at source 1
  // On ties the runner-up is the lowest live source index among the tied.
  tree.ReplaceWinner(25);
  EXPECT_EQ(tree.WinnerSource(), 1u);
  EXPECT_EQ(tree.RunnerUpSource(), 3u);
}

TEST(SentinelLoserTreeTest, LiveCountTracksExhaustion) {
  SentinelLoserTree<int, IntLess> tree(6, kIntSentinel);
  tree.InitSource(1, 3);
  tree.InitSource(4, 1);
  tree.Build();
  EXPECT_EQ(tree.live(), 2u);
  EXPECT_TRUE(tree.IsLive(1));
  EXPECT_TRUE(tree.IsLive(4));
  EXPECT_FALSE(tree.IsLive(0));
  tree.ExhaustWinner();
  EXPECT_EQ(tree.live(), 1u);
  EXPECT_FALSE(tree.IsLive(4));
  tree.ExhaustWinner();
  EXPECT_TRUE(tree.Empty());
}

/// Merge k random sorted runs with both trees and require identical
/// (value, source) output streams — the sentinel tree must preserve the
/// exact (key, source) total order of the classic tree.
TEST(SentinelLoserTreeTest, MatchesClassicTreeOnRandomRuns) {
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 20; ++trial) {
    size_t k = 1 + rng() % 9;
    std::vector<std::vector<int>> runs(k);
    for (auto& run : runs) {
      run.resize(rng() % 60);
      // Narrow key range to force many cross-run ties.
      for (auto& x : run) x = static_cast<int>(rng() % 12);
      std::sort(run.begin(), run.end());
    }
    auto drain = [&](auto& tree) {
      std::vector<size_t> pos(k, 0);
      for (size_t s = 0; s < k; ++s) {
        if (!runs[s].empty()) tree.InitSource(s, runs[s][0]);
        pos[s] = 1;
      }
      tree.Build();
      std::vector<std::pair<int, size_t>> out;
      while (!tree.Empty()) {
        size_t w = tree.WinnerSource();
        out.emplace_back(tree.Winner(), w);
        if (pos[w] < runs[w].size()) {
          tree.ReplaceWinner(runs[w][pos[w]++]);
        } else {
          tree.ExhaustWinner();
        }
      }
      return out;
    };
    LoserTree<int, IntLess> classic(k);
    SentinelLoserTree<int, IntLess> sentinel(k, kIntSentinel);
    auto expect = drain(classic);
    auto got = drain(sentinel);
    ASSERT_EQ(got, expect) << "trial " << trial << " k=" << k;
  }
}

// -------------------------------------------------------- SequenceGate ----

TEST(SequenceGateTest, SingleThreadTurnsAdvanceInOrder) {
  SequenceGate gate;
  for (size_t t = 0; t < 5; ++t) {
    EXPECT_TRUE(gate.IsTurn(t));
    EXPECT_FALSE(gate.IsTurn(t + 1));
    gate.WaitTurn(t);  // must not block on the current turn
    gate.Advance();
  }
}

TEST(SequenceGateTest, OrdersParallelForDelivery) {
  // The ordered-sink idiom of the parallel merge: workers pick up tasks in
  // any interleaving but hand over their output strictly in task order.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    SequenceGate gate;
    std::vector<size_t> delivered;
    pool.ParallelFor(64, [&](size_t t) {
      gate.WaitTurn(t);
      delivered.push_back(t);  // gate serializes: no mutex needed
      gate.Advance();
    });
    ASSERT_EQ(delivered.size(), 64u);
    for (size_t t = 0; t < 64; ++t) EXPECT_EQ(delivered[t], t);
  }
}

}  // namespace
}  // namespace demsort::par
