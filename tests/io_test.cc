#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "io/backend.h"
#include "io/block_manager.h"
#include "io/disk.h"
#include "io/striped_writer.h"
#include "util/aligned_buffer.h"

namespace demsort::io {
namespace {

constexpr size_t kBlock = 4096;

AlignedBuffer PatternBlock(uint8_t tag) {
  AlignedBuffer buf(kBlock);
  std::memset(buf.data(), tag, kBlock);
  return buf;
}

// ------------------------------------------------------------ Backend ----

TEST(MemoryBackendTest, RoundTrip) {
  MemoryBackend backend(kBlock);
  AlignedBuffer w = PatternBlock(0xAB);
  ASSERT_TRUE(backend.WriteBlock(5, w.data()).ok());
  AlignedBuffer r(kBlock);
  ASSERT_TRUE(backend.ReadBlock(5, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(MemoryBackendTest, ReadBeforeWriteFails) {
  MemoryBackend backend(kBlock);
  AlignedBuffer r(kBlock);
  EXPECT_EQ(backend.ReadBlock(0, r.data()).code(), StatusCode::kNotFound);
}

TEST(MemoryBackendTest, OverwriteReplaces) {
  MemoryBackend backend(kBlock);
  AlignedBuffer a = PatternBlock(1), b = PatternBlock(2), r(kBlock);
  ASSERT_TRUE(backend.WriteBlock(0, a.data()).ok());
  ASSERT_TRUE(backend.WriteBlock(0, b.data()).ok());
  ASSERT_TRUE(backend.ReadBlock(0, r.data()).ok());
  EXPECT_EQ(r.data()[17], 2);
}

TEST(FileBackendTest, RoundTrip) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_test.bin";
  auto created = FileBackend::Create(path, kBlock);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto backend = std::move(created).value();
  AlignedBuffer w = PatternBlock(0xCD), r(kBlock);
  ASSERT_TRUE(backend->WriteBlock(9, w.data()).ok());
  ASSERT_TRUE(backend->ReadBlock(9, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(FileBackendTest, ReadBeforeWriteFails) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_rbw.bin";
  auto created = FileBackend::Create(path, kBlock);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto backend = std::move(created).value();
  AlignedBuffer w = PatternBlock(0x33), r(kBlock);
  // Never-written block in a fresh file.
  EXPECT_EQ(backend->ReadBlock(0, r.data()).code(), StatusCode::kNotFound);
  // Writing block 5 leaves a filesystem hole at 0..4; reading the hole must
  // still fail loudly instead of returning zeros.
  ASSERT_TRUE(backend->WriteBlock(5, w.data()).ok());
  EXPECT_EQ(backend->ReadBlock(3, r.data()).code(), StatusCode::kNotFound);
  EXPECT_TRUE(backend->ReadBlock(5, r.data()).ok());
}

TEST(FileBackendTest, CreateTruncatesScratchCleansUp) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_scratch.bin";
  {
    auto created = FileBackend::Create(path, kBlock);
    ASSERT_TRUE(created.ok());
    AlignedBuffer w = PatternBlock(1);
    ASSERT_TRUE(created.value()->WriteBlock(0, w.data()).ok());
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  // Default Create() semantics: scratch disk, unlinked on close.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FileBackendTest, ReopenPreservesContents) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_reopen.bin";
  {
    auto created = FileBackend::Create(path, kBlock,
                                       /*unlink_on_close=*/false);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    AlignedBuffer a = PatternBlock(0x41), b = PatternBlock(0x42);
    ASSERT_TRUE(created.value()->WriteBlock(0, a.data()).ok());
    ASSERT_TRUE(created.value()->WriteBlock(1, b.data()).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    auto reopened = FileBackend::Open(path, kBlock);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    AlignedBuffer r(kBlock);
    ASSERT_TRUE(reopened.value()->ReadBlock(1, r.data()).ok());
    EXPECT_EQ(r.data()[99], 0x42);
    ASSERT_TRUE(reopened.value()->ReadBlock(0, r.data()).ok());
    EXPECT_EQ(r.data()[99], 0x41);
    // Beyond the reopened file's extent: never written.
    EXPECT_EQ(reopened.value()->ReadBlock(7, r.data()).code(),
              StatusCode::kNotFound);
    // New writes extend the reopened file.
    AlignedBuffer c = PatternBlock(0x43);
    ASSERT_TRUE(reopened.value()->WriteBlock(7, c.data()).ok());
    EXPECT_TRUE(reopened.value()->ReadBlock(7, r.data()).ok());
  }
  EXPECT_TRUE(std::filesystem::exists(path));  // Open never unlinks
  std::filesystem::remove(path);
}

TEST(FileBackendTest, OpenMissingFileIsNotFound) {
  std::string path = std::filesystem::temp_directory_path() /
                     "demsort_file_backend_missing.bin";
  std::filesystem::remove(path);
  auto opened = FileBackend::Open(path, kBlock);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------- VirtualDisk ----

TEST(VirtualDiskTest, AsyncRoundTrip) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer w = PatternBlock(0x11), r(kBlock);
  disk.WriteAsync(3, w.data()).WaitOk();
  disk.ReadAsync(3, r.data()).WaitOk();
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(VirtualDiskTest, SyncModeWorks) {
  VirtualDisk::Options options;
  options.async = false;
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), options);
  AlignedBuffer w = PatternBlock(0x22), r(kBlock);
  Request wr = disk.WriteAsync(0, w.data());
  EXPECT_TRUE(wr.done());  // inline execution completes immediately
  disk.ReadAsync(0, r.data()).WaitOk();
  EXPECT_EQ(r.data()[0], 0x22);
}

TEST(VirtualDiskTest, FifoOrderPreservesReadAfterWrite) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  // Queue many write/read pairs to the same block; FIFO must serialize.
  for (int round = 0; round < 50; ++round) {
    AlignedBuffer w = PatternBlock(static_cast<uint8_t>(round));
    AlignedBuffer r(kBlock);
    Request wreq = disk.WriteAsync(0, w.data());
    Request rreq = disk.ReadAsync(0, r.data());
    rreq.WaitOk();
    EXPECT_EQ(r.data()[100], static_cast<uint8_t>(round));
    wreq.WaitOk();
  }
}

TEST(VirtualDiskTest, StatsCountOpsAndBytes) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(1);
  for (uint64_t b = 0; b < 10; ++b) disk.WriteAsync(b, buf.data()).WaitOk();
  for (uint64_t b = 0; b < 4; ++b) disk.ReadAsync(b, buf.data()).WaitOk();
  disk.Drain();
  IoStatsSnapshot stats = disk.Stats();
  EXPECT_EQ(stats.writes, 10u);
  EXPECT_EQ(stats.reads, 4u);
  EXPECT_EQ(stats.bytes_written, 10 * kBlock);
  EXPECT_EQ(stats.bytes_read, 4 * kBlock);
  EXPECT_GT(stats.model_busy_ns, 0u);
}

TEST(VirtualDiskTest, SequentialAccessAvoidsSeeks) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(1);
  for (uint64_t b = 0; b < 20; ++b) disk.WriteAsync(b, buf.data()).WaitOk();
  uint64_t seq_seeks = disk.Stats().seeks;
  EXPECT_EQ(seq_seeks, 1u);  // only the first access seeks

  for (uint64_t b = 0; b < 20; b += 2) {
    disk.ReadAsync(19 - b, buf.data()).WaitOk();
  }
  EXPECT_GT(disk.Stats().seeks, seq_seeks + 5);
}

TEST(VirtualDiskTest, ReadErrorSurfaces) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer r(kBlock);
  Status s = disk.ReadAsync(99, r.data()).Wait();
  EXPECT_FALSE(s.ok());
}

TEST(DiskModelTest, TransferTimeScalesWithBytes) {
  DiskModel model;
  EXPECT_NEAR(model.TransferSeconds(67 * 1024 * 1024), 1.0, 1e-9);
  EXPECT_GT(model.SeekSeconds(), 0.0);
}

// -------------------------------------------------------- BlockManager ----

BlockManager::Options SmallBm(uint32_t disks = 3) {
  BlockManager::Options options;
  options.num_disks = disks;
  options.block_size = kBlock;
  return options;
}

TEST(BlockManagerTest, AllocationStripesAcrossDisks) {
  BlockManager bm(SmallBm(3));
  std::vector<BlockId> ids = bm.AllocateMany(9);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(ids[i].disk, static_cast<uint32_t>(i % 3));
  }
}

TEST(BlockManagerTest, FreeListIsReused) {
  BlockManager bm(SmallBm(1));
  BlockId a = bm.Allocate();
  bm.Free(a);
  BlockId b = bm.Allocate();
  EXPECT_EQ(a, b);
  EXPECT_EQ(bm.blocks_in_use(), 1u);
}

TEST(BlockManagerTest, FreedBlocksOnAnyDiskBeatFreshOnes) {
  // Blocks freed on one disk are reused by later allocations whichever
  // disk the round-robin cursor points at: k frees on disk 1, then k
  // Allocate() calls must hand back exactly those k blocks, no fresh one.
  BlockManager bm(SmallBm(3));
  std::vector<BlockId> ids = bm.AllocateMany(12);
  std::vector<BlockId> freed;
  for (const BlockId& id : ids) {
    if (id.disk == 1) freed.push_back(id);
  }
  ASSERT_EQ(freed.size(), 4u);
  for (const BlockId& id : freed) bm.Free(id);
  std::vector<BlockId> again;
  for (size_t i = 0; i < freed.size(); ++i) again.push_back(bm.Allocate());
  std::sort(freed.begin(), freed.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(again, freed);
  EXPECT_EQ(bm.blocks_in_use(), 12u);
  EXPECT_EQ(bm.peak_blocks_in_use(), 12u);
  // With every free list empty, allocation stripes over fresh blocks again.
  BlockId a = bm.Allocate();
  BlockId b = bm.Allocate();
  EXPECT_NE(a.disk, b.disk);
}

TEST(BlockManagerTest, PeakTracksHighWater) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(10);
  for (const BlockId& id : ids) bm.Free(id);
  bm.AllocateMany(3);
  EXPECT_EQ(bm.blocks_in_use(), 3u);
  EXPECT_EQ(bm.peak_blocks_in_use(), 10u);
}

TEST(BlockManagerTest, ReadWriteThroughIds) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(4);
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer w = PatternBlock(static_cast<uint8_t>(i + 1));
    bm.WriteSync(ids[i], w.data());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer r(kBlock);
    bm.ReadSync(ids[i], r.data());
    EXPECT_EQ(r.data()[0], static_cast<uint8_t>(i + 1));
  }
}

TEST(BlockManagerTest, FileBackendEndToEnd) {
  BlockManager::Options options = SmallBm(2);
  options.backend = BlockManager::BackendKind::kFile;
  options.file_dir = std::filesystem::temp_directory_path().string();
  options.pe_id = 77;
  BlockManager bm(options);
  std::vector<BlockId> ids = bm.AllocateMany(6);
  AlignedBuffer w = PatternBlock(0x5A), r(kBlock);
  bm.WriteSync(ids[5], w.data());
  bm.ReadSync(ids[5], r.data());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST(BlockManagerTest, AllocateOnDiskPins) {
  BlockManager bm(SmallBm(3));
  BlockId id = bm.AllocateOnDisk(2);
  EXPECT_EQ(id.disk, 2u);
}

TEST(BlockManagerTest, TotalStatsAggregatesDisks) {
  BlockManager bm(SmallBm(2));
  std::vector<BlockId> ids = bm.AllocateMany(8);
  AlignedBuffer w = PatternBlock(1);
  for (const BlockId& id : ids) bm.WriteSync(id, w.data());
  EXPECT_EQ(bm.TotalStats().writes, 8u);
  EXPECT_EQ(bm.DiskStats(0).writes + bm.DiskStats(1).writes, 8u);
}

// ------------------------------------------------------- StripedWriter ----

TEST(StripedWriterTest, WritesAndTracksFirstRecords) {
  BlockManager bm(SmallBm(2));
  StripedWriter<uint64_t> writer(&bm);
  const size_t epb = kBlock / sizeof(uint64_t);
  for (uint64_t i = 0; i < 3 * epb + 7; ++i) writer.Append(i);
  writer.Finish();
  EXPECT_EQ(writer.total_appended(), 3 * epb + 7);
  ASSERT_EQ(writer.blocks().size(), 4u);
  EXPECT_EQ(writer.block_first_records()[1], epb);
  EXPECT_EQ(writer.last_block_fill(), 7u);

  AlignedBuffer r(kBlock);
  bm.ReadSync(writer.blocks()[2], r.data());
  EXPECT_EQ(reinterpret_cast<uint64_t*>(r.data())[0], 2 * epb);
}

TEST(StripedWriterTest, EmptyFinishIsSafe) {
  BlockManager bm(SmallBm(2));
  StripedWriter<uint64_t> writer(&bm);
  writer.Finish();
  EXPECT_EQ(writer.total_appended(), 0u);
  EXPECT_TRUE(writer.blocks().empty());
}

TEST(StripedWriterTest, ExactBlockBoundary) {
  BlockManager bm(SmallBm(1));
  StripedWriter<uint64_t> writer(&bm);
  const size_t epb = kBlock / sizeof(uint64_t);
  for (uint64_t i = 0; i < 2 * epb; ++i) writer.Append(i);
  writer.Finish();
  EXPECT_EQ(writer.blocks().size(), 2u);
  EXPECT_EQ(writer.last_block_fill(), epb);
}

TEST(StripedWriterTest, AppendSpanMatchesAppend) {
  BlockManager bm(SmallBm(2));
  const size_t epb = kBlock / sizeof(uint64_t);
  std::vector<uint64_t> data(3 * epb + 11);
  for (size_t i = 0; i < data.size(); ++i) data[i] = i * 7;

  StripedWriter<uint64_t> a(&bm), b(&bm);
  for (uint64_t v : data) a.Append(v);
  // Spans sliced at awkward offsets must produce the identical stream.
  b.AppendSpan(data.data(), 3);
  b.AppendSpan(data.data() + 3, epb);
  b.AppendSpan(data.data() + 3 + epb, data.size() - 3 - epb);
  a.Finish();
  b.Finish();
  EXPECT_EQ(a.total_appended(), b.total_appended());
  EXPECT_EQ(a.block_first_records(), b.block_first_records());
  EXPECT_EQ(a.last_block_fill(), b.last_block_fill());
  ASSERT_EQ(a.blocks().size(), b.blocks().size());
  for (size_t i = 0; i < a.blocks().size(); ++i) {
    AlignedBuffer ra(kBlock), rb(kBlock);
    bm.ReadSync(a.blocks()[i], ra.data());
    bm.ReadSync(b.blocks()[i], rb.data());
    size_t fill = (i + 1 == a.blocks().size() ? a.last_block_fill() : epb) *
                  sizeof(uint64_t);
    EXPECT_EQ(std::memcmp(ra.data(), rb.data(), fill), 0) << "block " << i;
  }
}

// ------------------------------------------------- Backend conformance ----
//
// One suite, every compiled-in backend kind: the async seam contract
// (Submit/Reap, sync convenience, read-before-write rejection, queue
// capacity), the TrustOnly recovery mask, and reopen durability. Kinds the
// host cannot serve (O_DIRECT on tmpfs, io_uring behind a seccomp filter
// or forced off at configure time) skip with the reason in the log — the
// CI matrix covers both configurations.

class BackendConformanceTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::string NewPath(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            (std::string("demsort_conf_") + BackendKindName(GetParam()) +
             "_" + tag + ".bin"))
        .string();
  }
};

#define MAKE_BACKEND_OR_SKIP(var, opts)                                   \
  std::unique_ptr<StorageBackend> var;                                    \
  {                                                                       \
    auto made = MakeBackend(GetParam(), kBlock, opts);                    \
    if (!made.ok()) {                                                     \
      GTEST_SKIP() << BackendKindName(GetParam())                         \
                   << " unavailable here: " << made.status().ToString();  \
    }                                                                     \
    var = std::move(made).value();                                        \
  }

TEST_P(BackendConformanceTest, SyncRoundTrip) {
  BackendFileOptions opts;
  opts.path = NewPath("rt");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0xA7), r(kBlock);
  ASSERT_TRUE(backend->WriteBlock(5, w.data()).ok());
  ASSERT_TRUE(backend->ReadBlock(5, r.data()).ok());
  EXPECT_EQ(std::memcmp(w.data(), r.data(), kBlock), 0);
}

TEST_P(BackendConformanceTest, ReadBeforeWriteRejected) {
  BackendFileOptions opts;
  opts.path = NewPath("rbw");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0x11), r(kBlock);
  EXPECT_FALSE(backend->ReadBlock(0, r.data()).ok());
  // A write at 5 leaves 0..4 unwritten; the hole must still be rejected.
  ASSERT_TRUE(backend->WriteBlock(5, w.data()).ok());
  EXPECT_FALSE(backend->ReadBlock(3, r.data()).ok());
  EXPECT_TRUE(backend->ReadBlock(5, r.data()).ok());
}

TEST_P(BackendConformanceTest, OverwriteReplaces) {
  BackendFileOptions opts;
  opts.path = NewPath("ow");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer a = PatternBlock(1), b = PatternBlock(2), r(kBlock);
  ASSERT_TRUE(backend->WriteBlock(0, a.data()).ok());
  ASSERT_TRUE(backend->WriteBlock(0, b.data()).ok());
  ASSERT_TRUE(backend->ReadBlock(0, r.data()).ok());
  EXPECT_EQ(r.data()[17], 2);
}

TEST_P(BackendConformanceTest, SubmitReapBatchAtQueueDepth) {
  BackendFileOptions opts;
  opts.path = NewPath("batch");
  opts.queue_depth = 8;
  MAKE_BACKEND_OR_SKIP(backend, opts);
  EXPECT_GE(backend->queue_capacity(), 1u);

  // Fill the device queue with writes, then reap them all.
  constexpr int kOps = 24;
  std::vector<AlignedBuffer> bufs;
  for (int i = 0; i < kOps; ++i) {
    bufs.push_back(PatternBlock(static_cast<uint8_t>(i + 1)));
  }
  std::vector<IoCompletion> done;
  size_t submitted = 0, reaped = 0;
  while (submitted < kOps || reaped < kOps) {
    bool progressed = false;
    while (submitted < kOps) {
      IoOp op;
      op.is_write = true;
      op.block = submitted;
      op.write_buf = bufs[submitted].data();
      op.user_data = submitted;
      if (!backend->Submit(op)) break;  // device queue full
      ++submitted;
      progressed = true;
    }
    done.clear();
    size_t n = backend->Reap(&done, /*wait=*/!progressed);
    reaped += n;
    for (const IoCompletion& c : done) {
      EXPECT_TRUE(c.status.ok()) << c.status.ToString();
      EXPECT_LT(c.user_data, static_cast<uint64_t>(kOps));
    }
  }
  EXPECT_EQ(reaped, static_cast<size_t>(kOps));
  // Nothing in flight: a blocking reap must return 0, not hang.
  done.clear();
  EXPECT_EQ(backend->Reap(&done, /*wait=*/true), 0u);

  // Reads at depth verify every block's payload.
  std::vector<AlignedBuffer> reads(kOps);
  for (int i = 0; i < kOps; ++i) reads[i] = AlignedBuffer(kBlock);
  submitted = 0;
  reaped = 0;
  while (submitted < kOps || reaped < kOps) {
    bool progressed = false;
    while (submitted < kOps) {
      IoOp op;
      op.block = submitted;
      op.read_buf = reads[submitted].data();
      op.user_data = submitted;
      if (!backend->Submit(op)) break;
      ++submitted;
      progressed = true;
    }
    done.clear();
    size_t n = backend->Reap(&done, /*wait=*/!progressed);
    reaped += n;
    for (const IoCompletion& c : done) {
      ASSERT_TRUE(c.status.ok()) << c.status.ToString();
      EXPECT_EQ(reads[c.user_data].data()[40],
                static_cast<uint8_t>(c.user_data + 1));
    }
  }
}

TEST_P(BackendConformanceTest, FlushSucceedsWithNothingInFlight) {
  BackendFileOptions opts;
  opts.path = NewPath("flush");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0x77);
  ASSERT_TRUE(backend->WriteBlock(2, w.data()).ok());
  EXPECT_TRUE(backend->Flush().ok());
}

TEST_P(BackendConformanceTest, TrustOnlyMasksUnlistedBlocks) {
  if (!IsFileBacked(GetParam())) {
    GTEST_SKIP() << "TrustOnly is the recovery contract of the "
                    "file-backed kinds";
  }
  BackendFileOptions opts;
  opts.path = NewPath("trust");
  MAKE_BACKEND_OR_SKIP(backend, opts);
  AlignedBuffer w = PatternBlock(0x55), r(kBlock);
  for (uint64_t b = 0; b < 6; ++b) {
    ASSERT_TRUE(backend->WriteBlock(b, w.data()).ok());
  }
  backend->TrustOnly({1, 4});
  EXPECT_TRUE(backend->ReadBlock(1, r.data()).ok());
  EXPECT_TRUE(backend->ReadBlock(4, r.data()).ok());
  // Untrusted blocks read as never-written even though their bytes exist.
  EXPECT_FALSE(backend->ReadBlock(0, r.data()).ok());
  EXPECT_FALSE(backend->ReadBlock(3, r.data()).ok());
  EXPECT_FALSE(backend->ReadBlock(5, r.data()).ok());
  // Rewriting an untrusted block re-earns trust.
  ASSERT_TRUE(backend->WriteBlock(3, w.data()).ok());
  EXPECT_TRUE(backend->ReadBlock(3, r.data()).ok());
}

TEST_P(BackendConformanceTest, FlushThenReopenPreservesContents) {
  if (!IsFileBacked(GetParam())) {
    GTEST_SKIP() << "reopen durability applies to the file-backed kinds";
  }
  std::string path = NewPath("reopen");
  std::filesystem::remove(path);
  {
    BackendFileOptions opts;
    opts.path = path;
    opts.unlink_on_close = false;
    MAKE_BACKEND_OR_SKIP(backend, opts);
    AlignedBuffer a = PatternBlock(0x61), b = PatternBlock(0x62);
    ASSERT_TRUE(backend->WriteBlock(0, a.data()).ok());
    ASSERT_TRUE(backend->WriteBlock(3, b.data()).ok());
    ASSERT_TRUE(backend->Flush().ok());
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    BackendFileOptions opts;
    opts.path = path;
    opts.unlink_on_close = false;
    opts.reuse_existing = true;
    MAKE_BACKEND_OR_SKIP(backend, opts);
    AlignedBuffer r(kBlock);
    ASSERT_TRUE(backend->ReadBlock(0, r.data()).ok());
    EXPECT_EQ(r.data()[9], 0x61);
    ASSERT_TRUE(backend->ReadBlock(3, r.data()).ok());
    EXPECT_EQ(r.data()[9], 0x62);
    // Beyond the reopened extent: never written.
    EXPECT_FALSE(backend->ReadBlock(64, r.data()).ok());
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformanceTest,
                         ::testing::Values(BackendKind::kMemory,
                                           BackendKind::kFile,
                                           BackendKind::kDirect,
                                           BackendKind::kUring,
                                           BackendKind::kMmap),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// ----------------------------------------------------- StripedBackend ----

TEST(StripedBackendTest, RoundTripAcrossStripes) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (int i = 0; i < 3; ++i) {
    children.push_back(std::make_unique<MemoryBackend>(kBlock));
  }
  StripedBackend striped(std::move(children), kBlock);
  AlignedBuffer r(kBlock);
  for (uint64_t b = 0; b < 10; ++b) {
    AlignedBuffer w = PatternBlock(static_cast<uint8_t>(b + 1));
    ASSERT_TRUE(striped.WriteBlock(b, w.data()).ok());
  }
  for (uint64_t b = 0; b < 10; ++b) {
    ASSERT_TRUE(striped.ReadBlock(b, r.data()).ok());
    EXPECT_EQ(r.data()[123], static_cast<uint8_t>(b + 1));
  }
  EXPECT_FALSE(striped.ReadBlock(10, r.data()).ok());
}

TEST(StripedBackendTest, CapacityIsSummed) {
  std::vector<std::unique_ptr<StorageBackend>> children;
  for (int i = 0; i < 4; ++i) {
    children.push_back(std::make_unique<MemoryBackend>(kBlock));
  }
  StripedBackend striped(std::move(children), kBlock);
  EXPECT_EQ(striped.queue_capacity(), 4u);
}

TEST(StripedBackendTest, FileStripesViaBlockManager) {
  BlockManager::Options options = SmallBm(2);
  options.backend = BackendKind::kFile;
  options.file_dir = std::filesystem::temp_directory_path().string();
  options.pe_id = 78;
  options.files_per_disk = 3;
  BlockManager bm(options);
  std::vector<BlockId> ids = bm.AllocateMany(12);
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer w = PatternBlock(static_cast<uint8_t>(i + 1));
    bm.WriteSync(ids[i], w.data());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    AlignedBuffer r(kBlock);
    bm.ReadSync(ids[i], r.data());
    EXPECT_EQ(r.data()[0], static_cast<uint8_t>(i + 1));
  }
}

// --------------------------------------------------- queue-depth gauges ----

TEST(VirtualDiskTest, QueueDepthGaugesPopulate) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(1);
  for (uint64_t b = 0; b < 8; ++b) disk.WriteAsync(b, buf.data()).WaitOk();
  disk.Drain();
  IoStatsSnapshot stats = disk.Stats();
  EXPECT_GE(stats.queue_depth_peak, 1u);
  EXPECT_GE(stats.queue_depth_sum, stats.writes);
  EXPECT_GT(stats.submit_complete_ns, 0u);
  EXPECT_GE(stats.mean_queue_depth(), 1.0);

  disk.ResetQueueDepthPeak();
  EXPECT_EQ(disk.Stats().queue_depth_peak, 0u);
}

TEST(VirtualDiskTest, FlushDrainsAndSucceeds) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer buf = PatternBlock(2);
  std::vector<Request> reqs;
  for (uint64_t b = 0; b < 16; ++b) {
    reqs.push_back(disk.WriteAsync(b, buf.data()));
  }
  EXPECT_TRUE(disk.Flush().ok());
  for (Request& r : reqs) EXPECT_TRUE(r.done());
}

TEST(RequestTest, WaitAllReportsFirstErrorAfterAllComplete) {
  VirtualDisk disk(std::make_unique<MemoryBackend>(kBlock), {});
  AlignedBuffer w = PatternBlock(3), r(kBlock);
  disk.WriteAsync(0, w.data()).WaitOk();
  std::vector<Request> reqs;
  reqs.push_back(disk.ReadAsync(0, r.data()));
  reqs.push_back(disk.ReadAsync(99, r.data()));  // never written: fails
  reqs.push_back(disk.ReadAsync(0, r.data()));
  Status s = WaitAll(reqs);
  EXPECT_FALSE(s.ok());
  // Every request settled even though one failed — WaitAll must not
  // abandon in-flight requests on the first error.
  for (Request& req : reqs) EXPECT_TRUE(req.done());
}

}  // namespace
}  // namespace demsort::io
