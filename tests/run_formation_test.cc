// Run formation (§IV phase 1) invariants: every run is globally sorted,
// pieces tile it exactly, samples carry exact positions, randomization
// permutes block pickup, and the phase is (nearly) in place.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/block_io.h"
#include "core/run_formation.h"
#include "test_util.h"
#include "workload/generators.h"

namespace demsort::core {
namespace {

using test::KVLess;
using workload::Distribution;

std::vector<KV16> ReadPiece(PeContext& ctx, const SortConfig& config,
                            const RunPiece<KV16>& piece) {
  size_t epb = config.ElementsPerBlock<KV16>();
  std::vector<size_t> counts(piece.blocks.size());
  uint64_t remaining = piece.size;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
    remaining -= counts[i];
  }
  return ReadBlocks<KV16>(ctx.bm, piece.blocks, counts);
}

class RunFormationParamTest
    : public ::testing::TestWithParam<
          std::tuple<int, uint64_t, Distribution, bool>> {};

TEST_P(RunFormationParamTest, RunsAreGloballySortedAndTiled) {
  auto [P, elements_per_pe, dist, randomize] = GetParam();
  SortConfig config = test::SmallConfig();
  config.randomize_blocks = randomize;

  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, dist, elements_per_pe,
                                      ctx.rank(), P, cfg.seed);
    RunFormationResult<KV16> rf = FormRuns<KV16>(ctx, cfg, gen.input);

    EXPECT_EQ(rf.total_elements,
              static_cast<uint64_t>(P) * elements_per_pe);
    ASSERT_EQ(rf.runs.num_runs(), rf.table.num_runs());

    uint64_t seen = 0;
    for (size_t r = 0; r < rf.runs.num_runs(); ++r) {
      const RunPiece<KV16>& piece = rf.runs.pieces[r];
      std::vector<KV16> data = ReadPiece(ctx, cfg, piece);
      ASSERT_EQ(data.size(), piece.size);
      EXPECT_TRUE(std::is_sorted(data.begin(), data.end(), KVLess()));
      seen += piece.size;

      // Piece metadata matches the replicated table.
      EXPECT_EQ(piece.global_start,
                rf.table.piece_start[r][ctx.rank()]);
      EXPECT_EQ(piece.global_start + piece.size,
                rf.table.piece_start[r][ctx.rank() + 1]);

      // Block first-records are correct.
      size_t epb = cfg.ElementsPerBlock<KV16>();
      for (size_t b = 0; b * epb < data.size(); ++b) {
        EXPECT_EQ(piece.block_first_records[b].value,
                  data[b * epb].value);
      }

      // Global sortedness across pieces: my first key must not precede the
      // previous PE's last key. Verify via allgather of boundary keys.
      struct Bound {
        uint64_t first_key, last_key;
        uint8_t non_empty;
      };
      Bound mine{piece.size ? data.front().key : 0,
                 piece.size ? data.back().key : 0,
                 static_cast<uint8_t>(piece.size ? 1 : 0)};
      auto bounds = ctx.comm->Allgather(mine);
      bool have_prev = false;
      uint64_t prev_last = 0;
      for (const Bound& b : bounds) {
        if (!b.non_empty) continue;
        if (have_prev) {
          EXPECT_LE(prev_last, b.first_key);
        }
        prev_last = b.last_key;
        have_prev = true;
      }

      // Samples: the key of every K-th element from the piece start, plus
      // the closing element, each at its exact run position.
      const auto& samples = rf.samples.per_run[r];
      const uint64_t k = rf.samples.sample_every_k;
      std::vector<uint64_t> expect_pos, got_pos;
      for (uint64_t idx = 0; idx < piece.size; idx += k) {
        expect_pos.push_back(piece.global_start + idx);
      }
      if (piece.size > 0 && (piece.size - 1) % k != 0) {
        expect_pos.push_back(piece.global_start + piece.size - 1);
      }
      for (const auto& entry : samples) {
        if (entry.pos >= piece.global_start &&
            entry.pos < piece.global_start + piece.size) {
          got_pos.push_back(entry.pos);
          EXPECT_EQ(entry.key, data[entry.pos - piece.global_start].key);
        }
      }
      EXPECT_EQ(got_pos, expect_pos);
    }
    EXPECT_EQ(ctx.comm->AllreduceSum<uint64_t>(seen), rf.total_elements);

    // Sample table is position-sorted per run.
    for (size_t r = 0; r < rf.samples.per_run.size(); ++r) {
      const auto& s = rf.samples.per_run[r];
      for (size_t i = 1; i < s.size(); ++i) {
        EXPECT_LT(s[i - 1].pos, s[i].pos);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunFormationParamTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 4),
        ::testing::Values<uint64_t>(100, 1500, 4096),
        ::testing::Values(Distribution::kUniform,
                          Distribution::kWorstCaseLocal,
                          Distribution::kAllEqual),
        ::testing::Values(false, true)));

TEST(RunFormationTest, NumberOfRunsMatchesMemory) {
  const int P = 2;
  SortConfig config = test::SmallConfig();  // 512 elements per PE per run
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform,
                                      2048, ctx.rank(), P, cfg.seed);
    auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
    EXPECT_EQ(rf.runs.num_runs(), 4u);  // 2048 / 512
  });
}

TEST(RunFormationTest, InPlaceKeepsPeakNearInput) {
  const int P = 2;
  SortConfig config = test::SmallConfig();
  test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
    auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform,
                                      4096, ctx.rank(), P, cfg.seed);
    uint64_t input_blocks = gen.input.blocks.size();
    FormRuns<KV16>(ctx, cfg, gen.input);
    // Freed input blocks are recycled into run pieces: the peak should stay
    // within input + one run's worth of blocks (+ small slack).
    uint64_t run_blocks = cfg.memory_per_pe / cfg.block_size;
    EXPECT_LE(ctx.bm->peak_blocks_in_use(),
              input_blocks + run_blocks + 4);
  });
}

TEST(RunFormationTest, RandomizationChangesRunComposition) {
  // With locally sorted (worst-case) input and NO randomization, run 0 is
  // formed from every PE's smallest keys => run 0's key range is narrow.
  // With randomization it spans ~the full key range.
  const int P = 2;
  const uint64_t n = 4096;
  for (bool randomize : {false, true}) {
    SortConfig config = test::SmallConfig();
    config.randomize_blocks = randomize;
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
      auto gen = workload::GenerateKV16(ctx.bm,
                                        Distribution::kWorstCaseLocal, n,
                                        ctx.rank(), P, cfg.seed);
      auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
      ASSERT_GE(rf.runs.num_runs(), 4u);
      // Key range of run 0 from its samples, relative to global key range.
      const auto& s0 = rf.samples.per_run[0];
      ASSERT_FALSE(s0.empty());
      uint64_t min_key = UINT64_MAX, max_key = 0;
      for (const auto& e : s0) {
        min_key = std::min<uint64_t>(min_key, e.key);
        max_key = std::max<uint64_t>(max_key, e.key);
      }
      double spread =
          static_cast<double>(max_key - min_key) / static_cast<double>(UINT64_MAX);
      if (cfg.randomize_blocks) {
        EXPECT_GT(spread, 0.5) << "randomized run should span the keyspace";
      } else {
        EXPECT_LT(spread, 0.35) << "non-randomized run should be narrow";
      }
    });
  }
}

TEST(RunFormationTest, OverlapOffProducesSameRuns) {
  const int P = 2;
  const uint64_t n = 2000;
  std::mutex mu;
  std::vector<std::vector<uint64_t>> first_values(2);
  for (int variant = 0; variant < 2; ++variant) {
    SortConfig config = test::SmallConfig();
    config.overlap_run_formation = variant == 1;
    test::RunPes(P, config, [&](PeContext& ctx, const SortConfig& cfg) {
      auto gen = workload::GenerateKV16(ctx.bm, Distribution::kUniform, n,
                                        ctx.rank(), P, cfg.seed);
      auto rf = FormRuns<KV16>(ctx, cfg, gen.input);
      for (size_t r = 0; r < rf.runs.num_runs(); ++r) {
        auto data = ReadPiece(ctx, cfg, rf.runs.pieces[r]);
        std::lock_guard<std::mutex> lock(mu);
        for (const auto& rec : data) {
          first_values[variant].push_back(rec.value);
        }
      }
    });
  }
  std::sort(first_values[0].begin(), first_values[0].end());
  std::sort(first_values[1].begin(), first_values[1].end());
  EXPECT_EQ(first_values[0], first_values[1]);
}

}  // namespace
}  // namespace demsort::core
