// BlockManager: a PE's view of its D local disks — striped block allocation,
// free lists, async access by BlockId, and the allocation high-water mark
// that backs the paper's (nearly) in-place claims.
#ifndef DEMSORT_IO_BLOCK_MANAGER_H_
#define DEMSORT_IO_BLOCK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/backend.h"
#include "io/disk.h"
#include "io/io_stats.h"
#include "io/request.h"

namespace demsort::io {

/// Address of one block on one of the PE's local disks.
struct BlockId {
  uint32_t disk = UINT32_MAX;
  uint64_t block = 0;

  bool valid() const { return disk != UINT32_MAX; }
  bool operator==(const BlockId& o) const {
    return disk == o.disk && block == o.block;
  }
  bool operator<(const BlockId& o) const {
    return disk != o.disk ? disk < o.disk : block < o.block;
  }
};

class BlockManager {
 public:
  /// Which physical backend each disk gets (see io::BackendKind).
  using BackendKind = io::BackendKind;

  struct Options {
    uint32_t num_disks = 2;
    size_t block_size = 64 * 1024;
    BackendKind backend = BackendKind::kMemory;
    /// Directory for file-backed disks (one file per disk, times
    /// files_per_disk stripes). Required for every file-backed kind.
    std::string file_dir;
    /// Distinguishes this PE's files from other PEs' in file_dir.
    int pe_id = 0;
    bool async = true;
    /// Files (stripes) per disk: K > 1 fans one disk's blocks over K
    /// independent files — K NVMe queues instead of one. Ignored by the
    /// memory backend.
    uint32_t files_per_disk = 1;
    /// Per-disk target queue depth; 0 = the backend's own capacity (see
    /// VirtualDisk::Options::queue_depth).
    size_t queue_depth = 0;
    DiskModel model;
    /// Keep the file-backend disk files on destruction (checkpointed runs
    /// need them to survive the epoch that wrote them). Default is the
    /// scratch-disk behaviour: unlink on close.
    bool durable_files = false;
    /// Reopen the existing disk files instead of truncating them — the
    /// recovery re-entry path. Requires durable files written by a prior
    /// epoch; pair with RestoreAllocator + TrustOnly so only checkpointed
    /// blocks are trusted.
    bool reuse_files = false;
  };

  explicit BlockManager(const Options& options);

  /// The backing file of `disk` for a PE (the one naming convention shared
  /// by the constructor and the recovery validator).
  static std::string DiskFilePath(const std::string& file_dir, int pe_id,
                                  uint32_t disk);
  /// Stripe `stripe` of `disk` (stripe 0 is DiskFilePath itself; stripe k>0
  /// appends ".s<k>").
  static std::string StripeFilePath(const std::string& file_dir, int pe_id,
                                    uint32_t disk, uint32_t stripe);

  /// Smoke-tests that `kind` actually works here (kernel + filesystem) by
  /// creating and destroying one scratch backend in `dir`. The authoritative
  /// probe for uring (syscall may be filtered) and O_DIRECT (tmpfs).
  static Status ProbeBackend(BackendKind kind, size_t block_size,
                             const std::string& dir);

  uint32_t num_disks() const { return static_cast<uint32_t>(disks_.size()); }
  size_t block_size() const { return options_.block_size; }
  const Options& options() const { return options_; }

  /// Allocates one block, round-robin across disks (striping). A freed block
  /// is always reused before a fresh one is taken: the round-robin disk's
  /// if it has one, else the next disk's that does.
  BlockId Allocate();
  std::vector<BlockId> AllocateMany(size_t n);
  /// Allocates n blocks on a specific disk (used by tests and by the striped
  /// algorithm, whose disk choice is dictated by the global stripe).
  BlockId AllocateOnDisk(uint32_t disk);

  void Free(BlockId id);

  /// Recovery seam: while deferring, Free() only queues — freed blocks are
  /// neither reusable nor counted out of in_use_ until
  /// CommitDeferredFrees(). The sort defers across a phase that recycles
  /// the previous phase's blocks, committing only after the phase's
  /// checkpoint is durable on every rank, so a mid-phase kill always finds
  /// the prior phase's blocks intact on disk.
  void SetDeferFrees(bool defer);
  void CommitDeferredFrees();

  /// Recovery re-entry: resets the allocator so exactly `live` is in use —
  /// every other index below the per-disk high-water mark returns to the
  /// free list — and re-trusts only `live` in the reopened files (see
  /// StorageBackend::TrustOnly). Call before the epoch's first allocation.
  void RestoreAllocator(const std::vector<BlockId>& live);

  Request ReadAsync(BlockId id, void* buf);
  Request WriteAsync(BlockId id, const void* buf);
  void ReadSync(BlockId id, void* buf) { ReadAsync(id, buf).WaitOk(); }
  void WriteSync(BlockId id, const void* buf) {
    WriteAsync(id, buf).WaitOk();
  }

  /// Batch submission from the phase hot paths: every op is enqueued before
  /// the caller looks at a single completion, so the per-disk pumps run at
  /// full queue depth instead of one-at-a-time request/wait cycles.
  std::vector<Request> ReadBatch(
      const std::vector<std::pair<BlockId, void*>>& ops);
  std::vector<Request> WriteBatch(
      const std::vector<std::pair<BlockId, const void*>>& ops);

  /// Waits until all disks' queues are empty.
  void DrainAll();
  /// DrainAll() + per-backend durability barrier (fsync/msync): everything
  /// written so far survives a kill when this returns OK. The checkpoint
  /// commit protocol calls this before declaring a phase durable.
  Status FlushAll();

  uint64_t blocks_in_use() const;
  uint64_t peak_blocks_in_use() const;

  IoStatsSnapshot DiskStats(uint32_t disk) const {
    return disks_[disk]->Stats();
  }
  /// Sum over all local disks.
  IoStatsSnapshot TotalStats() const;
  /// Phase boundary for the queue-depth gauges on every disk.
  void ResetQueueDepthPeaks();
  /// Max of per-disk modeled busy time — the PE-level I/O completion time if
  /// all local disks run in parallel (they do: local striping).
  double MaxDiskModelBusySeconds() const;

 private:
  /// Takes a freed block of `disk`, else a fresh one. Caller holds mu_.
  BlockId AllocateOnDiskLocked(uint32_t disk);

  Options options_;
  std::vector<std::unique_ptr<VirtualDisk>> disks_;

  mutable std::mutex mu_;
  std::vector<std::vector<uint64_t>> free_lists_;  // per disk
  std::vector<uint64_t> next_fresh_;               // per disk
  uint32_t rr_cursor_ = 0;
  uint64_t in_use_ = 0;
  uint64_t peak_in_use_ = 0;
  bool defer_frees_ = false;
  std::vector<BlockId> deferred_frees_;
};

}  // namespace demsort::io

#endif  // DEMSORT_IO_BLOCK_MANAGER_H_
