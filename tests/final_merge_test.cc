// Final merge (§IV phase 3): merging extent chains must produce exactly the
// sorted concatenation, prefetching in prediction order and freeing blocks
// as it goes (in-place).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "core/final_merge.h"
#include "core/record.h"
#include "io/striped_writer.h"
#include "test_util.h"
#include "util/aligned_buffer.h"
#include "util/random.h"

namespace demsort::core {
namespace {

using test::KVLess;

/// Builds an on-disk extent from a sorted record vector.
Extent<KV16> MakeExtent(io::BlockManager* bm, uint32_t run,
                        uint64_t start_pos, const std::vector<KV16>& data) {
  io::StripedWriter<KV16> writer(bm);
  for (const KV16& r : data) writer.Append(r);
  writer.Finish();
  Extent<KV16> ext;
  ext.run = run;
  ext.start_pos = start_pos;
  ext.count = data.size();
  ext.blocks = writer.blocks();
  ext.block_first_records = writer.block_first_records();
  return ext;
}

std::vector<KV16> ReadOutput(io::BlockManager* bm,
                             const MergeOutput<KV16>& out) {
  size_t epb = bm->block_size() / sizeof(KV16);
  std::vector<KV16> data;
  AlignedBuffer buf(bm->block_size());
  uint64_t remaining = out.num_elements;
  for (const io::BlockId& id : out.blocks) {
    bm->ReadSync(id, buf.data());
    size_t take = static_cast<size_t>(std::min<uint64_t>(epb, remaining));
    const KV16* records = reinterpret_cast<const KV16*>(buf.data());
    data.insert(data.end(), records, records + take);
    remaining -= take;
  }
  return data;
}

class FinalMergeParamTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int>> {};

TEST_P(FinalMergeParamTest, MergesToSortedPermutation) {
  auto [num_runs, extents_per_run, key_range] = GetParam();
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(num_runs * 131 + extents_per_run);
    std::vector<std::vector<Extent<KV16>>> extents(num_runs);
    std::vector<KV16> expect;
    uint64_t gid = 0;
    for (int j = 0; j < num_runs; ++j) {
      // One sorted run, chopped into several extents.
      size_t len = 50 + rng.Below(500);
      std::vector<KV16> run(len);
      for (auto& r : run) {
        r = {rng.Below(static_cast<uint64_t>(key_range)), gid++};
      }
      std::sort(run.begin(), run.end(), [](const KV16& a, const KV16& b) {
        return std::tie(a.key, a.value) < std::tie(b.key, b.value);
      });
      expect.insert(expect.end(), run.begin(), run.end());
      size_t cuts = extents_per_run;
      size_t pos = 0;
      for (size_t c = 0; c < cuts; ++c) {
        size_t end = c + 1 == cuts
                         ? len
                         : std::min(len, pos + len / cuts + rng.Below(7));
        if (end > pos) {
          std::vector<KV16> part(run.begin() + pos, run.begin() + end);
          extents[j].push_back(
              MakeExtent(ctx.bm, j, pos, part));
          pos = end;
        }
      }
    }
    std::sort(expect.begin(), expect.end(), [](const KV16& a, const KV16& b) {
      return std::tie(a.key, a.value) < std::tie(b.key, b.value);
    });

    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    std::vector<KV16> got = ReadOutput(ctx.bm, out);
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end(), KVLess()));
    // Permutation check via sorted values.
    std::vector<uint64_t> got_vals, expect_vals;
    for (auto& r : got) got_vals.push_back(r.value);
    for (auto& r : expect) expect_vals.push_back(r.value);
    std::sort(got_vals.begin(), got_vals.end());
    std::sort(expect_vals.begin(), expect_vals.end());
    EXPECT_EQ(got_vals, expect_vals);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FinalMergeParamTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 9),
                       ::testing::Values(1, 3),
                       ::testing::Values(3, 1000000)));

TEST(FinalMergeTest, OffsetExtents) {
  // An extent whose data begins mid-block (first_block_offset > 0), as the
  // in-place local fast path produces.
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    size_t epb = cfg.ElementsPerBlock<KV16>();
    std::vector<KV16> run(3 * epb);
    for (size_t i = 0; i < run.size(); ++i) {
      run[i] = {static_cast<uint64_t>(i), i};
    }
    Extent<KV16> full = MakeExtent(ctx.bm, 0, 0, run);
    // Reference the same blocks but skip the first 10 elements and drop the
    // last 5 — simulating a trimmed local extent.
    Extent<KV16> trimmed;
    trimmed.run = 0;
    trimmed.start_pos = 10;
    trimmed.count = run.size() - 15;
    trimmed.blocks = full.blocks;
    trimmed.block_first_records = full.block_first_records;
    trimmed.first_block_offset = 10;

    std::vector<std::vector<Extent<KV16>>> extents(1);
    extents[0].push_back(trimmed);
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    std::vector<KV16> got = ReadOutput(ctx.bm, out);
    ASSERT_EQ(got.size(), run.size() - 15);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].value, i + 10);
    }
  });
}

TEST(FinalMergeTest, EmptyRunsAreFine) {
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    std::vector<std::vector<Extent<KV16>>> extents(4);  // all empty
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    EXPECT_EQ(out.num_elements, 0u);
    EXPECT_TRUE(out.blocks.empty());
  });
}

TEST(FinalMergeTest, FreesConsumedBlocks) {
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(3);
    std::vector<std::vector<Extent<KV16>>> extents(3);
    size_t total = 0;
    for (int j = 0; j < 3; ++j) {
      std::vector<KV16> run(1000);
      for (auto& r : run) r = {rng.Next(), 0};
      std::sort(run.begin(), run.end(), KVLess());
      extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
      total += run.size();
    }
    uint64_t before = ctx.bm->blocks_in_use();
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    // Inputs freed, output allocated: net usage ≈ the same block count.
    uint64_t after = ctx.bm->blocks_in_use();
    EXPECT_EQ(out.num_elements, total);
    EXPECT_LE(after, before + 2);
    // And the peak never held input + output simultaneously in full.
    EXPECT_LT(ctx.bm->peak_blocks_in_use(), 2 * before);
  });
}

// ------------------------------------------------- parallel merge sweep ----

std::string MakeTempDir() {
  char tmpl[] = "/tmp/demsort_merge_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  DEMSORT_CHECK(dir != nullptr);
  return dir;
}

/// A deterministic merge workload plus its exact sequential merge order:
/// the oracle sorts by (key, run, position) — precisely the tie order the
/// single-threaded loser tree emits — so the parallel engine must match it
/// record for record, not just as a sorted permutation.
struct MergeCase {
  std::vector<std::vector<KV16>> runs;
  std::vector<KV16> expect;
};

MergeCase BuildMergeCase(int num_runs, size_t run_len, uint64_t key_range,
                         uint64_t seed) {
  Rng rng(seed);
  MergeCase mc;
  mc.runs.resize(num_runs);
  struct Tagged {
    KV16 rec;
    size_t j, p;
  };
  std::vector<Tagged> all;
  uint64_t gid = 0;
  for (int j = 0; j < num_runs; ++j) {
    auto& run = mc.runs[j];
    run.resize(run_len + rng.Below(run_len / 4 + 1));
    for (auto& r : run) r = {rng.Below(key_range), gid++};
    std::sort(run.begin(), run.end(), [](const KV16& a, const KV16& b) {
      return std::tie(a.key, a.value) < std::tie(b.key, b.value);
    });
    for (size_t p = 0; p < run.size(); ++p) {
      all.push_back({run[p], static_cast<size_t>(j), p});
    }
  }
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    return std::tie(a.rec.key, a.j, a.p) < std::tie(b.rec.key, b.j, b.p);
  });
  for (const auto& t : all) mc.expect.push_back(t.rec);
  return mc;
}

std::vector<std::pair<uint64_t, uint64_t>> AsPairs(
    const std::vector<KV16>& v) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(v.size());
  for (const auto& r : v) out.emplace_back(r.key, r.value);
  return out;
}

/// Workers the merge engine must use for `n` elements under `cfg`.
size_t ExpectedMergeWorkers(const SortConfig& cfg, size_t n) {
  const size_t epb = cfg.ElementsPerBlock<KV16>();
  return std::min<size_t>(cfg.threads_per_pe,
                          std::max<size_t>(1, n / (2 * epb)));
}

/// Feeds `mc` through FinalMerge under the given engine settings and
/// asserts the output is byte-identical to the oracle: the record stream,
/// the per-block first records, and the tail fill must all match exactly,
/// regardless of worker count or storage backend.
void CheckEngineMatchesOracle(SortConfig config, const MergeCase& mc) {
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    const size_t epb = cfg.ElementsPerBlock<KV16>();
    std::vector<std::vector<Extent<KV16>>> extents(mc.runs.size());
    for (size_t j = 0; j < mc.runs.size(); ++j) {
      // Chop each run into two extents to exercise segment chaining.
      size_t half = mc.runs[j].size() / 2;
      std::vector<KV16> a(mc.runs[j].begin(), mc.runs[j].begin() + half);
      std::vector<KV16> b(mc.runs[j].begin() + half, mc.runs[j].end());
      if (!a.empty()) {
        extents[j].push_back(
            MakeExtent(ctx.bm, static_cast<uint32_t>(j), 0, a));
      }
      if (!b.empty()) {
        extents[j].push_back(
            MakeExtent(ctx.bm, static_cast<uint32_t>(j), half, b));
      }
    }
    PhaseStats stats;
    MergeOutput<KV16> out =
        FinalMerge<KV16>(ctx, cfg, std::move(extents), &stats);
    ASSERT_EQ(out.num_elements, mc.expect.size());

    std::vector<KV16> got = ReadOutput(ctx.bm, out);
    ASSERT_EQ(AsPairs(got), AsPairs(mc.expect));

    // Manifest identity: first records per block and the tail fill are what
    // the sequential engine would have produced.
    ASSERT_EQ(out.block_first_records.size(), out.blocks.size());
    for (size_t i = 0; i < out.blocks.size(); ++i) {
      EXPECT_EQ(out.block_first_records[i].key, mc.expect[i * epb].key);
      EXPECT_EQ(out.block_first_records[i].value, mc.expect[i * epb].value);
    }
    size_t tail = mc.expect.size() % epb;
    EXPECT_EQ(out.last_block_fill, tail == 0 ? epb : tail);

    EXPECT_EQ(stats.merge_workers,
              ExpectedMergeWorkers(cfg, mc.expect.size()));
  });
}

class ParallelMergeTest
    : public ::testing::TestWithParam<
          std::tuple<int, io::BlockManager::BackendKind>> {};

TEST_P(ParallelMergeTest, ByteIdenticalAcrossEnginesAndBackends) {
  auto [threads, backend] = GetParam();
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = threads;
  config.backend = backend;
  std::string dir;
  if (backend != io::BlockManager::BackendKind::kMemory) {
    dir = MakeTempDir();
    config.file_dir = dir;
  }
  // ~9k elements over 6 runs: enough for 4 real partitions (epb = 64).
  CheckEngineMatchesOracle(config,
                           BuildMergeCase(6, 1400, 100000, /*seed=*/777));
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelMergeTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 4),
        ::testing::Values(io::BlockManager::BackendKind::kMemory,
                          io::BlockManager::BackendKind::kFile)));

TEST(ParallelMergeTest, DuplicateHeavyKeysCollapseCutsSafely) {
  // All-equal keys collapse every partition cut onto the run/position tie
  // break; the engine must stay exact (some partitions just come out thin).
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  CheckEngineMatchesOracle(config, BuildMergeCase(5, 1200, /*key_range=*/1,
                                                  /*seed=*/31337));
}

TEST(ParallelMergeTest, FewKeysManyTies) {
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  CheckEngineMatchesOracle(config, BuildMergeCase(7, 900, /*key_range=*/3,
                                                  /*seed=*/2026));
}

TEST(ParallelMergeTest, SingleRunStreamsThroughAllWorkers) {
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  CheckEngineMatchesOracle(config, BuildMergeCase(1, 4000, 100000,
                                                  /*seed=*/8));
}

class ParallelMergeSinkTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelMergeSinkTest, OrderedSinkSeesGlobalOrder) {
  // MergeExtentsToSink at every worker count: the sink must observe the
  // exact sequential merge order even though partitions are merged
  // concurrently (workers hand over through the sequence gate).
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = GetParam();
  MergeCase mc = BuildMergeCase(6, 1400, 50000, /*seed=*/99);
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    std::vector<std::vector<Extent<KV16>>> extents(mc.runs.size());
    for (size_t j = 0; j < mc.runs.size(); ++j) {
      extents[j].push_back(
          MakeExtent(ctx.bm, static_cast<uint32_t>(j), 0, mc.runs[j]));
    }
    std::vector<KV16> seen;
    PhaseStats stats;
    uint64_t n = MergeExtentsToSink<KV16>(
        ctx, cfg, std::move(extents),
        [&seen](const KV16& r) { seen.push_back(r); }, &stats);
    EXPECT_EQ(n, mc.expect.size());
    ASSERT_EQ(AsPairs(seen), AsPairs(mc.expect));
    EXPECT_EQ(stats.merge_workers,
              ExpectedMergeWorkers(cfg, mc.expect.size()));
    EXPECT_GT(stats.merge_cpu_ms + stats.merge_io_wait_ms, 0.0);
  });
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelMergeSinkTest,
                         ::testing::Values(1, 2, 4));

TEST(ParallelMergeTest, ParallelMergeStillFreesConsumedBlocks) {
  SortConfig config = test::SmallConfig();
  config.threads_per_pe = 4;
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(3);
    std::vector<std::vector<Extent<KV16>>> extents(3);
    size_t total = 0;
    for (int j = 0; j < 3; ++j) {
      std::vector<KV16> run(3000);
      for (auto& r : run) r = {rng.Next(), 0};
      std::sort(run.begin(), run.end(), KVLess());
      extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
      total += run.size();
    }
    uint64_t before = ctx.bm->blocks_in_use();
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    uint64_t after = ctx.bm->blocks_in_use();
    EXPECT_EQ(out.num_elements, total);
    // Every input block freed exactly once (shared boundary blocks
    // included), outputs allocated: net usage stays flat.
    EXPECT_LE(after, before + 2);
  });
}

TEST(FinalMergeTest, PredictionReducesDemandFetches) {
  // Not a strict guarantee, but for uniformly interleaved runs the
  // prediction order should cover essentially all fetches.
  SortConfig config = test::SmallConfig();
  test::RunPes(1, config, [&](PeContext& ctx, const SortConfig& cfg) {
    Rng rng(17);
    std::vector<std::vector<Extent<KV16>>> extents(4);
    for (int j = 0; j < 4; ++j) {
      std::vector<KV16> run(2000);
      for (auto& r : run) r = {rng.Next(), 0};
      std::sort(run.begin(), run.end(), KVLess());
      extents[j].push_back(MakeExtent(ctx.bm, j, 0, run));
    }
    MergeOutput<KV16> out = FinalMerge<KV16>(ctx, cfg, std::move(extents));
    EXPECT_EQ(out.num_elements, 8000u);
  });
}

}  // namespace
}  // namespace demsort::core
