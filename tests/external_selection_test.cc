// External multiway selection (§IV-A / App. B): the splitter matrix must
// partition the disk-resident runs at exactly the ranks i*N/P, verified
// against a brute-force oracle over the full data.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/block_io.h"
#include "core/external_selection.h"
#include "core/run_formation.h"
#include "io/striped_writer.h"
#include "test_util.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using test::GrayKeys;
using workload::Distribution;

template <typename R = KV16>
std::vector<R> ReadPiece(PeContext& ctx, const SortConfig& config,
                         const RunPiece<R>& piece) {
  size_t epb = config.ElementsPerBlock<R>();
  std::vector<size_t> counts(piece.blocks.size());
  uint64_t remaining = piece.size;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
    remaining -= counts[i];
  }
  return ReadBlocks<R>(ctx.bm, piece.blocks, counts);
}

/// Writes `records` onto the PE's disks as its input slice.
LocalInput WriteInput(io::BlockManager* bm,
                      const std::vector<Gray100>& records) {
  io::StripedWriter<Gray100> writer(bm);
  for (const Gray100& rec : records) writer.Append(rec);
  writer.Finish();
  LocalInput input;
  input.blocks = writer.blocks();
  input.num_elements = records.size();
  return input;
}

/// Brute-force splitters: order every (run, position) by (memcmp key, run,
/// position) and count, per run, the elements below each target rank.
std::vector<std::vector<uint64_t>> OracleSplitters(
    const std::vector<std::vector<Gray100>>& runs, int P) {
  std::vector<std::pair<size_t, uint64_t>> order;
  for (size_t r = 0; r < runs.size(); ++r) {
    for (uint64_t pos = 0; pos < runs[r].size(); ++pos) {
      order.emplace_back(r, pos);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](const auto& a, const auto& b) {
                     return test::GrayMemcmpLess(runs[a.first][a.second],
                                                 runs[b.first][b.second]);
                   });
  const uint64_t total = order.size();
  std::vector<std::vector<uint64_t>> split(P + 1);
  for (int t = 0; t < P; ++t) {
    uint64_t target = total / P * t + std::min<uint64_t>(total % P, t);
    split[t].assign(runs.size(), 0);
    for (uint64_t i = 0; i < target; ++i) ++split[t][order[i].first];
  }
  for (const auto& run : runs) split[P].push_back(run.size());
  return split;
}

class ExternalSelectionParamTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, Distribution>> {
};

TEST_P(ExternalSelectionParamTest, SplittersPartitionExactly) {
  auto [P, elements_per_pe, dist] = GetParam();
  SortConfig config = test::SmallConfig();

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      ctx.rank(), P, cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);

    ExternalSelector<KV16> selector(ctx, cfg, rf);
    SplitterMatrix split = selector.SelectAllCollective(nullptr);

    const size_t num_runs = rf.table.num_runs();
    ASSERT_EQ(split.boundary.size(), static_cast<size_t>(P + 1));

    // Row sums hit the exact target ranks; rows are monotone per run.
    uint64_t total = rf.total_elements;
    for (int t = 0; t <= P; ++t) {
      uint64_t sum = 0;
      for (size_t r = 0; r < num_runs; ++r) {
        sum += split.boundary[t][r];
        if (t > 0) {
          EXPECT_LE(split.boundary[t - 1][r], split.boundary[t][r]);
        }
      }
      uint64_t expect =
          t == P ? total : total / P * t + std::min<uint64_t>(total % P, t);
      EXPECT_EQ(sum, expect) << "row " << t;
    }

    // Oracle: gather all run data on every PE (test sizes are small), then
    // check the partition property per boundary: with the (key, run, pos)
    // total order, every element left of a split must precede every element
    // right of it.
    std::vector<std::vector<KV16>> full_runs(num_runs);
    for (size_t r = 0; r < num_runs; ++r) {
      std::vector<KV16> mine = ReadPiece(ctx, cfg, rf.runs.pieces[r]);
      auto parts = ctx.comm->AllgatherV(mine);
      for (auto& part : parts) {
        full_runs[r].insert(full_runs[r].end(), part.begin(), part.end());
      }
      ASSERT_EQ(full_runs[r].size(), rf.table.RunLength(r));
      ASSERT_TRUE(std::is_sorted(full_runs[r].begin(), full_runs[r].end(),
                                 test::KVLess()));
    }
    for (int t = 1; t < P; ++t) {
      // max over runs of (key at split-1, run) must precede min of
      // (key at split, run) in (key, run) order.
      std::pair<uint64_t, size_t> max_left{0, 0};
      std::pair<uint64_t, size_t> min_right{UINT64_MAX, SIZE_MAX};
      bool have_left = false, have_right = false;
      for (size_t r = 0; r < num_runs; ++r) {
        uint64_t s = split.boundary[t][r];
        if (s > 0) {
          std::pair<uint64_t, size_t> cand{full_runs[r][s - 1].key, r};
          if (!have_left || max_left < cand) max_left = cand;
          have_left = true;
        }
        if (s < full_runs[r].size()) {
          std::pair<uint64_t, size_t> cand{full_runs[r][s].key, r};
          if (!have_right || cand < min_right) min_right = cand;
          have_right = true;
        }
      }
      if (have_left && have_right) {
        EXPECT_LE(max_left.first, min_right.first) << "boundary " << t;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalSelectionParamTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5),
        ::testing::Values<uint64_t>(64, 777, 3000),
        ::testing::Values(Distribution::kUniform,
                          Distribution::kWorstCaseLocal,
                          Distribution::kAllEqual, Distribution::kZipf,
                          Distribution::kSortedGlobal)));

TEST(ExternalSelectionTest, SelectionIsCheapWithSamples) {
  // The sampled bootstrap should keep fetch rounds very low (the paper:
  // "multiway selection takes negligible time").
  const int P = 4;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, 4096,
                                      ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    PhaseStats stats;
    ExternalSelector<KV16> selector(ctx, cfg, rf);
    selector.SelectAllCollective(&stats);
    EXPECT_LE(stats.selection_rounds, 24u);
  });
}

TEST(ExternalSelectionTest, RowGatherStaysAtStreamingBufferBound) {
  // The splitter-row replication goes through Comm::AllgatherVStream: row
  // chunks land directly in the matrix, so transport-side buffering stays
  // at the streaming bound of O(credits x chunk x sources) — NOT at the
  // P-vectors-of-rows the buffered AllgatherV used to stage. A geometry
  // with hundreds of runs makes the two regimes clearly distinguishable.
  const int P = 4;
  SortConfig config = test::SmallConfig();
  config.memory_per_pe = 2048;       // 128 KV16 per run piece => many runs
  config.stream_chunk_bytes = 128;   // far below one row
  config.stream_chunk_min_bytes = 128;
  config.stream_chunk_max_bytes = 128;
  const uint64_t elements_per_pe = 60000;

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform,
                                      elements_per_pe, ctx.rank(), P,
                                      cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);
    const size_t num_runs = rf.table.num_runs();
    ASSERT_GE(num_runs, 100u) << "geometry no longer produces enough runs "
                                 "for the bound comparison to be meaningful";

    net::Comm& comm = *ctx.comm;
    ExternalSelector<KV16> selector(ctx, cfg, rf);
    const uint64_t total = rf.total_elements;
    const int me = comm.rank();
    uint64_t my_target =
        total / P * me + std::min<uint64_t>(total % P, me);
    std::vector<uint64_t> my_row = selector.SelectCollective(my_target,
                                                             nullptr);

    // Quiesce the fetch rounds, then measure the row gather in isolation.
    comm.Barrier();
    comm.ResetRecvBufferPeak();
    SplitterMatrix split = selector.GatherSplitterMatrix(my_row);
    uint64_t peak = comm.StatsSnapshot().recv_buffer_peak_bytes;

    const uint64_t row_bytes = num_runs * sizeof(uint64_t);
    const uint64_t streaming_bound =
        static_cast<uint64_t>(P - 1) *
        ((net::Comm::kStreamSendCreditChunks + 2) *
             (cfg.stream_chunk_bytes + sizeof(net::StreamChunkHeader)) +
         sizeof(net::StreamSizeHeader) + 8 * sizeof(net::StreamCreditMsg));
    ASSERT_LT(streaming_bound, static_cast<uint64_t>(P - 1) * row_bytes)
        << "bound comparison degenerate: grow the run count";
    EXPECT_LE(peak, streaming_bound);

    // And the matrix is still the right one: row sums hit the targets.
    for (int t = 0; t <= P; ++t) {
      uint64_t sum = 0;
      for (size_t r = 0; r < num_runs; ++r) sum += split.boundary[t][r];
      uint64_t expect =
          t == P ? total : total / P * t + std::min<uint64_t>(total % P, t);
      EXPECT_EQ(sum, expect) << "row " << t;
    }
  });
}

TEST(ExternalSelectionTest, TinyCacheStillCorrect) {
  const int P = 3;
  SortConfig config = test::SmallConfig();
  config.selection_cache_blocks = 1;  // pathological; must still converge
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kZipf, 1024,
                                      ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    ExternalSelector<KV16> selector(ctx, cfg, rf);
    SplitterMatrix split = selector.SelectAllCollective(nullptr);
    uint64_t total = rf.total_elements;
    for (int t = 0; t <= P; ++t) {
      uint64_t sum = 0;
      for (size_t r = 0; r < rf.table.num_runs(); ++r) {
        sum += split.boundary[t][r];
      }
      uint64_t expect =
          t == P ? total : total / P * t + std::min<uint64_t>(total % P, t);
      EXPECT_EQ(sum, expect);
    }
  });
}

// Selection on Gray100 ships and compares the 10-byte keys alone. The key
// shapes tie in the 8-byte prefix (or entirely), so a key compare that
// dropped bytes 8-9 would pick different splitters than the oracle.
class ExternalSelectionGrayTest
    : public ::testing::TestWithParam<std::tuple<int, GrayKeys>> {};

TEST_P(ExternalSelectionGrayTest, SplittersMatchBruteForceOracle) {
  auto [P, shape] = GetParam();
  SortConfig config = test::SmallConfig();  // 10 Gray100 per block
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    std::vector<Gray100> records =
        test::MakeGray100(shape, 700 + 53 * ctx.rank(), ctx.rank(), cfg.seed);
    RunFormationResult<Gray100> rf =
        FormRuns<Gray100>(ctx, cfg, WriteInput(ctx.bm, records));
    ASSERT_GE(rf.table.num_runs(), 4u);

    ExternalSelector<Gray100> selector(ctx, cfg, rf);
    SplitterMatrix split = selector.SelectAllCollective(nullptr);

    std::vector<std::vector<Gray100>> runs(rf.table.num_runs());
    for (size_t r = 0; r < runs.size(); ++r) {
      std::vector<Gray100> mine = ReadPiece(ctx, cfg, rf.runs.pieces[r]);
      for (auto& part : ctx.comm->AllgatherV(mine)) {
        runs[r].insert(runs[r].end(), part.begin(), part.end());
      }
    }
    std::vector<std::vector<uint64_t>> expect = OracleSplitters(runs, P);
    ASSERT_EQ(split.boundary.size(), expect.size());
    for (int t = 0; t <= P; ++t) {
      EXPECT_EQ(split.boundary[t], expect[t]) << "row " << t;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExternalSelectionGrayTest,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values(GrayKeys::kPrefixTies,
                                         GrayKeys::kAllEqual)));

TEST(ExternalSelectionTest, FetchRoundsSendKeysNotRecords) {
  // Everything a PE sends while selecting is accounted for: the fetched
  // blocks' keys (sizeof(Key) = 10 bytes each, not a 100-byte record),
  // one request entry and one frame header per block, and the per-round
  // convergence allreduce.
  const int P = 4;
  using Selector = ExternalSelector<Gray100>;
  SortConfig config = test::SmallConfig();
  config.block_size = 4096;  // 40 Gray100 per block
  config.memory_per_pe = 16 * 1024;
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateGray100(ctx.bm, 3000, ctx.rank(), P,
                                         cfg.seed);
    auto rf = FormRuns<Gray100>(ctx, cfg, gen.input);
    net::Comm& comm = *ctx.comm;
    Selector selector(ctx, cfg, rf);
    const uint64_t target =
        internal::EvenSplitRank(rf.total_elements, P, comm.rank());
    // What one convergence allreduce sends from this PE (the tree
    // collectives' packing is deterministic, so every round costs the same).
    comm.Barrier();
    const uint64_t before_allreduce = comm.StatsSnapshot().bytes_sent;
    comm.AllreduceAnd(true);
    const uint64_t allreduce_bytes =
        comm.StatsSnapshot().bytes_sent - before_allreduce;
    PhaseStats stats;
    comm.Barrier();
    const uint64_t before = comm.StatsSnapshot().bytes_sent;
    selector.SelectCollective(target, &stats);
    const uint64_t sent = comm.StatsSnapshot().bytes_sent - before;

    const Selector::FetchCounts& fc = selector.fetch_counts();
    const uint64_t payload =
        fc.keys_served * sizeof(Selector::Key) +
        fc.blocks_served * Selector::kFrameHeaderBytes +
        fc.blocks_requested * Selector::kRequestBytes;
    const uint64_t framing = (stats.selection_rounds + 1) * allreduce_bytes;
    EXPECT_GT(comm.AllreduceSum<uint64_t>(fc.keys_served), 0u);
    EXPECT_LE(sent, payload + framing)
        << "keys served " << fc.keys_served << ", a whole record each would "
        << "be " << fc.keys_served * sizeof(Gray100) << " bytes";
  });
}

}  // namespace
}  // namespace demsort::core
