#include "io/block_manager.h"

#include <unistd.h>

#include <algorithm>

#include "util/logging.h"

namespace demsort::io {

std::string BlockManager::DiskFilePath(const std::string& file_dir, int pe_id,
                                       uint32_t disk) {
  return file_dir + "/demsort_pe" + std::to_string(pe_id) + "_disk" +
         std::to_string(disk) + ".bin";
}

std::string BlockManager::StripeFilePath(const std::string& file_dir,
                                         int pe_id, uint32_t disk,
                                         uint32_t stripe) {
  std::string base = DiskFilePath(file_dir, pe_id, disk);
  if (stripe == 0) return base;
  return base + ".s" + std::to_string(stripe);
}

Status BlockManager::ProbeBackend(BackendKind kind, size_t block_size,
                                  const std::string& dir) {
  if (!IsFileBacked(kind)) return Status::OK();
  if (dir.empty()) {
    return Status::InvalidArgument("file-backed backend requires file_dir");
  }
  BackendFileOptions options;
  options.path = dir + "/demsort_probe_" + std::to_string(::getpid()) +
                 ".bin";
  options.unlink_on_close = true;
  options.queue_depth = 2;
  auto made = MakeBackend(kind, block_size, options);
  if (!made.ok()) return made.status();
  // One write+read round trip so O_DIRECT EINVALs (unsupported filesystem)
  // surface here instead of mid-sort.
  AlignedBuffer buf(block_size);
  buf.Zero();
  StorageBackend& backend = *made.value();
  DEMSORT_RETURN_IF_ERROR(backend.WriteBlock(0, buf.data()));
  DEMSORT_RETURN_IF_ERROR(backend.ReadBlock(0, buf.data()));
  return Status::OK();
}

BlockManager::BlockManager(const Options& options) : options_(options) {
  DEMSORT_CHECK_GT(options.num_disks, 0u);
  DEMSORT_CHECK_GT(options.block_size, 0u);
  disks_.reserve(options.num_disks);
  const uint32_t stripes =
      IsFileBacked(options.backend) ? std::max(options.files_per_disk, 1u)
                                    : 1u;
  for (uint32_t d = 0; d < options.num_disks; ++d) {
    std::unique_ptr<StorageBackend> backend;
    if (!IsFileBacked(options.backend)) {
      DEMSORT_CHECK(!options.reuse_files)
          << "recovery reuse requires a file-backed backend (memory-backed "
             "blocks die with the epoch)";
      backend = std::make_unique<MemoryBackend>(options.block_size);
    } else {
      DEMSORT_CHECK(!options.file_dir.empty())
          << "file-backed backend requires file_dir";
      std::vector<std::unique_ptr<StorageBackend>> children;
      children.reserve(stripes);
      for (uint32_t s = 0; s < stripes; ++s) {
        BackendFileOptions file_options;
        file_options.path =
            StripeFilePath(options.file_dir, options.pe_id, d, s);
        file_options.unlink_on_close = !options.durable_files;
        file_options.reuse_existing = options.reuse_files;
        file_options.queue_depth =
            options.queue_depth == 0
                ? 32u
                : static_cast<unsigned>(options.queue_depth);
        auto made =
            MakeBackend(options.backend, options.block_size, file_options);
        DEMSORT_CHECK(made.ok()) << made.status().ToString();
        children.push_back(std::move(made).value());
      }
      if (children.size() == 1) {
        backend = std::move(children.front());
      } else {
        backend = std::make_unique<StripedBackend>(std::move(children),
                                                   options.block_size);
      }
    }
    VirtualDisk::Options disk_options;
    disk_options.async = options.async;
    disk_options.queue_depth = options.queue_depth;
    disk_options.model = options.model;
    disk_options.trace_rank = options.pe_id;
    disks_.push_back(
        std::make_unique<VirtualDisk>(std::move(backend), disk_options));
  }
  free_lists_.resize(options.num_disks);
  next_fresh_.assign(options.num_disks, 0);
}

BlockId BlockManager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t start = rr_cursor_;
  rr_cursor_ = (rr_cursor_ + 1) % num_disks();
  // A freed block on any disk beats a fresh one: fresh blocks grow the disk
  // footprint (and, on the memory backend, are new allocations). Start at
  // the round-robin disk so allocation still stripes when the free lists
  // are balanced.
  for (uint32_t k = 0; k < num_disks(); ++k) {
    uint32_t disk = (start + k) % num_disks();
    if (!free_lists_[disk].empty()) return AllocateOnDiskLocked(disk);
  }
  return AllocateOnDiskLocked(start);
}

std::vector<BlockId> BlockManager::AllocateMany(size_t n) {
  std::vector<BlockId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) ids.push_back(Allocate());
  return ids;
}

BlockId BlockManager::AllocateOnDisk(uint32_t disk) {
  DEMSORT_CHECK_LT(disk, num_disks());
  std::lock_guard<std::mutex> lock(mu_);
  return AllocateOnDiskLocked(disk);
}

BlockId BlockManager::AllocateOnDiskLocked(uint32_t disk) {
  BlockId id;
  id.disk = disk;
  if (!free_lists_[disk].empty()) {
    id.block = free_lists_[disk].back();
    free_lists_[disk].pop_back();
  } else {
    id.block = next_fresh_[disk]++;
  }
  ++in_use_;
  peak_in_use_ = std::max(peak_in_use_, in_use_);
  return id;
}

void BlockManager::Free(BlockId id) {
  DEMSORT_CHECK(id.valid());
  DEMSORT_CHECK_LT(id.disk, num_disks());
  std::lock_guard<std::mutex> lock(mu_);
  DEMSORT_CHECK_GT(in_use_, 0u);
  if (defer_frees_) {
    // Still counted in in_use_ and absent from the free lists: the block
    // stays unreadable-for-reuse until the phase checkpoint commits.
    deferred_frees_.push_back(id);
    return;
  }
  --in_use_;
  free_lists_[id.disk].push_back(id.block);
}

void BlockManager::SetDeferFrees(bool defer) {
  std::lock_guard<std::mutex> lock(mu_);
  defer_frees_ = defer;
}

void BlockManager::CommitDeferredFrees() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const BlockId& id : deferred_frees_) {
    DEMSORT_CHECK_GT(in_use_, 0u);
    --in_use_;
    free_lists_[id.disk].push_back(id.block);
  }
  deferred_frees_.clear();
}

void BlockManager::RestoreAllocator(const std::vector<BlockId>& live) {
  std::lock_guard<std::mutex> lock(mu_);
  DEMSORT_CHECK(deferred_frees_.empty());
  std::vector<std::vector<uint64_t>> per_disk(num_disks());
  for (const BlockId& id : live) {
    DEMSORT_CHECK(id.valid());
    DEMSORT_CHECK_LT(id.disk, num_disks());
    per_disk[id.disk].push_back(id.block);
  }
  for (uint32_t d = 0; d < num_disks(); ++d) {
    std::sort(per_disk[d].begin(), per_disk[d].end());
    next_fresh_[d] =
        per_disk[d].empty() ? 0 : per_disk[d].back() + 1;
    // Every index below the high-water mark that the manifest does not claim
    // is a leftover of the killed epoch — recycle it.
    free_lists_[d].clear();
    size_t li = 0;
    for (uint64_t b = 0; b < next_fresh_[d]; ++b) {
      if (li < per_disk[d].size() && per_disk[d][li] == b) {
        ++li;
      } else {
        free_lists_[d].push_back(b);
      }
    }
    disks_[d]->TrustOnly(per_disk[d]);
  }
  in_use_ = live.size();
  peak_in_use_ = std::max(peak_in_use_, in_use_);
}

Request BlockManager::ReadAsync(BlockId id, void* buf) {
  DEMSORT_CHECK(id.valid());
  return disks_[id.disk]->ReadAsync(id.block, buf);
}

Request BlockManager::WriteAsync(BlockId id, const void* buf) {
  DEMSORT_CHECK(id.valid());
  return disks_[id.disk]->WriteAsync(id.block, buf);
}

std::vector<Request> BlockManager::ReadBatch(
    const std::vector<std::pair<BlockId, void*>>& ops) {
  std::vector<Request> requests;
  requests.reserve(ops.size());
  for (const auto& [id, buf] : ops) requests.push_back(ReadAsync(id, buf));
  return requests;
}

std::vector<Request> BlockManager::WriteBatch(
    const std::vector<std::pair<BlockId, const void*>>& ops) {
  std::vector<Request> requests;
  requests.reserve(ops.size());
  for (const auto& [id, buf] : ops) requests.push_back(WriteAsync(id, buf));
  return requests;
}

void BlockManager::DrainAll() {
  for (auto& disk : disks_) disk->Drain();
}

Status BlockManager::FlushAll() {
  Status first = Status::OK();
  for (auto& disk : disks_) {
    Status s = disk->Flush();
    if (first.ok() && !s.ok()) first = std::move(s);
  }
  return first;
}

uint64_t BlockManager::blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

uint64_t BlockManager::peak_blocks_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_use_;
}

IoStatsSnapshot BlockManager::TotalStats() const {
  IoStatsSnapshot total;
  for (const auto& disk : disks_) total += disk->Stats();
  return total;
}

void BlockManager::ResetQueueDepthPeaks() {
  for (auto& disk : disks_) disk->ResetQueueDepthPeak();
}

double BlockManager::MaxDiskModelBusySeconds() const {
  double max_s = 0.0;
  for (const auto& disk : disks_) {
    max_s = std::max(max_s, disk->Stats().model_busy_s());
  }
  return max_s;
}

}  // namespace demsort::io
