// Tests of the cooperative distributed in-memory sort (§IV-B): after the
// collective call, PE i must hold exactly the i-th equal share of the
// globally sorted data, for every P, size and distribution combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "core/internal_sort.h"
#include "test_util.h"
#include "util/random.h"

namespace demsort::core {
namespace {

using test::GrayKeys;
using test::KVLess;
using GrayLess = RecordTraits<Gray100>::Less;

enum class Dist { kRandom, kSorted, kReversed, kAllEqual, kFewKeys };

std::vector<KV16> MakeLocal(Dist dist, uint64_t n, int rank, int P) {
  Rng rng(1000 + rank);
  std::vector<KV16> data(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t gid = static_cast<uint64_t>(rank) * n + i;
    switch (dist) {
      case Dist::kRandom:
        data[i] = {rng.Next(), gid};
        break;
      case Dist::kSorted:
        data[i] = {gid, gid};
        break;
      case Dist::kReversed:
        data[i] = {static_cast<uint64_t>(P) * n - gid, gid};
        break;
      case Dist::kAllEqual:
        data[i] = {7, gid};
        break;
      case Dist::kFewKeys:
        data[i] = {rng.Below(3), gid};
        break;
    }
  }
  return data;
}

class InternalSortParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Dist>> {};

TEST_P(InternalSortParamTest, ExactEqualPartition) {
  auto [P, n, dist] = GetParam();
  std::mutex mu;
  std::vector<std::vector<KV16>> pieces(P);
  std::vector<uint64_t> starts(P);
  std::vector<std::vector<KV16>> inputs(P);

  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    std::vector<KV16> local = MakeLocal(dist, n, ctx.rank(), P);
    {
      std::lock_guard<std::mutex> lock(mu);
      inputs[ctx.rank()] = local;
    }
    InternalSortResult<KV16> result =
        InternalParallelSort<KV16>(ctx, std::move(local));
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
    starts[ctx.rank()] = result.piece_start;
    EXPECT_EQ(result.total, static_cast<uint64_t>(P) * n);
  });

  // Oracle: sort the concatenated input by (key, source PE, position) —
  // which for our data equals (key, value) since values are global ids.
  std::vector<KV16> all;
  for (auto& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::sort(all.begin(), all.end(), [](const KV16& a, const KV16& b) {
    return std::tie(a.key, a.value) < std::tie(b.key, b.value);
  });

  uint64_t total = static_cast<uint64_t>(P) * n;
  uint64_t offset = 0;
  for (int p = 0; p < P; ++p) {
    uint64_t expect_size = total / P + (static_cast<uint64_t>(p) <
                                        total % P ? 1 : 0);
    ASSERT_EQ(pieces[p].size(), expect_size) << "PE " << p;
    EXPECT_EQ(starts[p], offset);
    for (uint64_t i = 0; i < expect_size; ++i) {
      EXPECT_EQ(pieces[p][i].key, all[offset + i].key)
          << "PE " << p << " at " << i;
      EXPECT_EQ(pieces[p][i].value, all[offset + i].value)
          << "PE " << p << " at " << i;
    }
    offset += expect_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InternalSortParamTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values<uint64_t>(0, 1, 10, 257, 1000),
                       ::testing::Values(Dist::kRandom, Dist::kSorted,
                                         Dist::kReversed, Dist::kAllEqual,
                                         Dist::kFewKeys)));

TEST(InternalSortTest, UnevenLocalSizes) {
  const int P = 4;
  std::mutex mu;
  std::vector<std::vector<KV16>> pieces(P);
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    // PE p contributes p*100 elements.
    uint64_t n = static_cast<uint64_t>(ctx.rank()) * 100;
    Rng rng(ctx.rank() + 55);
    std::vector<KV16> local(n);
    for (auto& r : local) r = {rng.Below(1000), rng.Next()};
    auto result = InternalParallelSort<KV16>(ctx, std::move(local));
    EXPECT_EQ(result.total, 600u);
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
  });
  // Equal split of 600 into 4 pieces of 150, globally ordered.
  uint64_t prev_last = 0;
  for (int p = 0; p < P; ++p) {
    ASSERT_EQ(pieces[p].size(), 150u);
    EXPECT_TRUE(std::is_sorted(pieces[p].begin(), pieces[p].end(),
                               KVLess()));
    if (p > 0) {
      EXPECT_GE(pieces[p].front().key, prev_last);
    }
    prev_last = pieces[p].back().key;
  }
}

TEST(InternalSortTest, SelectionRoundsAreLogarithmic) {
  const int P = 4;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig&) {
    Rng rng(ctx.rank());
    std::vector<KV16> local(4096);
    for (auto& r : local) r = {rng.Next(), rng.Next()};
    auto result = InternalParallelSort<KV16>(ctx, std::move(local));
    // log2(4096) = 12; allow generous slack over the bound.
    EXPECT_LE(result.selection_rounds, 40u);
  });
}

// Gray100 selection works on the 10-byte keys alone. The key shapes tie in
// the 8-byte prefix (or entirely), so a key compare that dropped bytes 8-9
// would pick different splitters than the brute-force oracle.
class GraySelectTest
    : public ::testing::TestWithParam<std::tuple<int, GrayKeys>> {};

TEST_P(GraySelectTest, SplittersMatchBruteForceOracle) {
  auto [P, shape] = GetParam();
  const uint64_t n = 600;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    const int me = ctx.rank();
    std::vector<Gray100> local =
        test::MakeGray100(shape, n + 37 * me, me, cfg.seed);
    std::stable_sort(local.begin(), local.end(), GrayLess());
    uint64_t rounds = 0;
    internal::DistributedSelection sel = internal::DistributedSelect<Gray100>(
        *ctx.comm, std::span<const Gray100>(local), &rounds);

    // Oracle: order every (PE, position) by (memcmp key, PE, position) and
    // count, per PE, the elements below each target rank.
    std::vector<std::vector<Gray100>> all = ctx.comm->AllgatherV(local);
    std::vector<std::pair<int, uint64_t>> order;
    for (int j = 0; j < P; ++j) {
      for (uint64_t pos = 0; pos < all[j].size(); ++pos) {
        order.emplace_back(j, pos);
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](const auto& a, const auto& b) {
                       return test::GrayMemcmpLess(all[a.first][a.second],
                                                   all[b.first][b.second]);
                     });
    ASSERT_EQ(sel.total, order.size());
    ASSERT_EQ(sel.split.size(), static_cast<size_t>(P - 1));
    for (int t = 1; t < P; ++t) {
      uint64_t target = internal::EvenSplitRank(sel.total, P, t);
      std::vector<uint64_t> expect(P, 0);
      for (uint64_t i = 0; i < target; ++i) ++expect[order[i].first];
      EXPECT_EQ(sel.split[t - 1], expect) << "target " << t;
    }
  });
}

TEST_P(GraySelectTest, SortedPiecesMatchOracle) {
  auto [P, shape] = GetParam();
  const uint64_t n = 500;
  std::mutex mu;
  std::vector<std::vector<Gray100>> inputs(P), pieces(P);
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    std::vector<Gray100> local =
        test::MakeGray100(shape, n, ctx.rank(), cfg.seed);
    {
      std::lock_guard<std::mutex> lock(mu);
      inputs[ctx.rank()] = local;
    }
    InternalSortResult<Gray100> result =
        InternalParallelSort<Gray100>(ctx, std::move(local));
    std::lock_guard<std::mutex> lock(mu);
    pieces[ctx.rank()] = std::move(result.piece);
  });
  // (key, source PE, position) order: a stable sort of the inputs
  // concatenated in PE order.
  std::vector<Gray100> all;
  for (auto& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::stable_sort(all.begin(), all.end(), test::GrayMemcmpLess);
  std::vector<Gray100> got;
  for (auto& piece : pieces) got.insert(got.end(), piece.begin(), piece.end());
  ASSERT_EQ(got.size(), all.size());
  EXPECT_EQ(std::memcmp(got.data(), all.data(), all.size() * sizeof(Gray100)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraySelectTest,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(GrayKeys::kPrefixTies,
                                         GrayKeys::kAllEqual)));

TEST(InternalSortTest, SelectionSendsKeysNotRecords) {
  // Everything DistributedSelect sends is accounted for: key samples, the
  // window requests, the window keys (sizeof(Key) = 10 bytes each, not a
  // 100-byte record) and the splitter rows, plus per-message stream
  // framing.
  const int P = 4;
  const uint64_t n = 4000;
  using Key = RecordTraits<Gray100>::Key;
  using Entry = SampleTable<Gray100>::Entry;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(cfg.seed + ctx.rank());
    std::vector<Gray100> local(n);
    for (Gray100& rec : local) {
      for (uint8_t& b : rec.key) b = static_cast<uint8_t>(rng.Next());
    }
    std::stable_sort(local.begin(), local.end(), GrayLess());
    net::Comm& comm = *ctx.comm;
    comm.Barrier();
    const uint64_t before = comm.StatsSnapshot().bytes_sent;
    uint64_t rounds = 0;
    internal::DistributedSelection sel = internal::DistributedSelect<Gray100>(
        comm, std::span<const Gray100>(local), &rounds);
    const uint64_t sent = comm.StatsSnapshot().bytes_sent - before;

    const uint64_t sample_k = n / (8 * P);
    const uint64_t entries = n / sample_k + 1;
    const uint64_t peers = P - 1;
    const uint64_t payload = sel.keys_sent * sizeof(Key) +
                             peers * entries * sizeof(Entry) +
                             peers * 2 * sizeof(uint64_t) +
                             peers * P * sizeof(uint64_t);
    const uint64_t framing = peers * 3 * 256;
    EXPECT_GT(comm.AllreduceSum<uint64_t>(sel.keys_sent), 0u);
    EXPECT_LE(sent, payload + framing)
        << "keys sent " << sel.keys_sent << ", a whole record each would "
        << "be " << sel.keys_sent * sizeof(Gray100) << " bytes";
  });
}

}  // namespace
}  // namespace demsort::core
