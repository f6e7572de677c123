// Phase 2a of CANONICALMERGESORT (§IV-A, Appendix B): every PE i finds, for
// each of the R disk-resident sorted runs, the exact position of global rank
// r_i = i*N/P — the splitters that give PE i precisely the elements of ranks
// [i*N/P, (i+1)*N/P) under the (key, run, position) total order.
//
// Implementation follows the paper's optimized variant:
//  * The in-memory sample (the key of every K-th element of each run, kept
//    with exact run positions, replicated after run formation) bootstraps
//    per-run bounds without any I/O (SampleBootstrapBounds): a pivot's
//    global rank is bracketed by sample counts, and decisive brackets
//    tighten the bounds exactly as the pivot loop of par::MultiwaySelect
//    does.
//  * Exact refinement runs the same pivot loop with exact counts; counts
//    touch at most the one or two blocks per run the sample leaves
//    uncertain. Blocks are fetched from their owner PEs in BSP rounds over
//    the nonblocking transport: requests go out, every owner reads all the
//    blocks it serves in the round with one ReadBatch, and ships only their
//    keys (RecordTraits<R>::Key), never whole records. Fetched keys are kept
//    in a bounded cache, so repeated probes are free ("we cache the most
//    recently accessed disk blocks").
// All P selections proceed simultaneously, one per PE, sharing the fetch
// rounds; convergence is detected with an allreduce.
#ifndef DEMSORT_CORE_EXTERNAL_SELECTION_H_
#define DEMSORT_CORE_EXTERNAL_SELECTION_H_

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "core/run_formation.h"
#include "core/run_index.h"
#include "core/sample_bounds.h"
#include "net/transport.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"

namespace demsort::core {

/// boundary[t][r]: position in run r where PE t's output data begins;
/// boundary[P][r] is the run length. Replicated on all PEs.
struct SplitterMatrix {
  std::vector<std::vector<uint64_t>> boundary;

  int num_pes() const { return static_cast<int>(boundary.size()) - 1; }
  size_t num_runs() const { return boundary.empty() ? 0 : boundary[0].size(); }
};

template <typename R>
class ExternalSelector {
 public:
  using Traits = RecordTraits<R>;
  using Key = typename Traits::Key;

  /// What this PE's fetch rounds have shipped so far: the blocks it
  /// requested from other PEs, and the blocks (and keys in them) it served
  /// to other PEs.
  struct FetchCounts {
    uint64_t blocks_requested = 0;
    uint64_t blocks_served = 0;
    uint64_t keys_served = 0;
  };

  ExternalSelector(PeContext& ctx, const SortConfig& config,
                   const RunFormationResult<R>& rf)
      : ctx_(ctx),
        config_(config),
        rf_(rf),
        epb_(config.ElementsPerBlock<R>()),
        num_runs_(rf.table.num_runs()),
        // A pivot evaluation walks, per run, a deterministic binary-search
        // probe path of <= log2(window/B) + 2 blocks that must stay
        // resident simultaneously for the walk to complete; clamp the
        // cache so eviction can never livelock it (26 covers windows up to
        // 2^24 blocks).
        cache_capacity_(std::max<size_t>(config.selection_cache_blocks,
                                         26 * rf.table.num_runs() + 8)) {
    lengths_.resize(num_runs_);
    for (size_t r = 0; r < num_runs_; ++r) {
      lengths_[r] = rf_.table.RunLength(r);
    }
  }

  /// Wire cost of one fetched block beyond its keys: its request entry and
  /// its frame header.
  static constexpr size_t kRequestBytes = 16;
  static constexpr size_t kFrameHeaderBytes = 16;

  const FetchCounts& fetch_counts() const { return fetch_counts_; }

  /// Collective: every PE calls this once; PE i selects rank
  /// r_i = i*N/P (+remainder spread). Returns the full splitter matrix.
  SplitterMatrix SelectAllCollective(PhaseStats* stats) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();
    std::vector<uint64_t> my_row = SelectCollective(
        internal::EvenSplitRank(rf_.total_elements, P, comm.rank()), stats);
    return GatherSplitterMatrix(my_row);
  }

  /// Collective: replicates every PE's boundary row into the full matrix
  /// through the streaming allgather — row chunks land directly in the
  /// matrix as they arrive, so the exchange never materializes P row
  /// payloads on the receive side (buffering stays at the streaming bound
  /// of O(credits x chunk x sources) however many runs there are). Public
  /// as its own step so the peak-buffer regression test can measure it in
  /// isolation from the block-fetch rounds.
  SplitterMatrix GatherSplitterMatrix(const std::vector<uint64_t>& my_row) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();
    DEMSORT_CHECK_EQ(my_row.size(), num_runs_);
    SplitterMatrix split;
    split.boundary.assign(P + 1, std::vector<uint64_t>());
    std::vector<size_t> filled(P, 0);
    comm.AllgatherVStream(
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(my_row.data()),
            my_row.size() * sizeof(uint64_t)),
        [&](int src, std::span<const uint8_t> chunk, bool) {
          DEMSORT_CHECK_EQ(chunk.size() % sizeof(uint64_t), 0u);
          if (chunk.empty()) return;
          std::memcpy(split.boundary[src].data() + filled[src], chunk.data(),
                      chunk.size());
          filled[src] += chunk.size() / sizeof(uint64_t);
        },
        [&](int src, uint64_t bytes) {
          DEMSORT_CHECK_EQ(bytes, num_runs_ * sizeof(uint64_t));
          split.boundary[src].resize(num_runs_);
        },
        config_.StreamOptionsFor(sizeof(uint64_t)));
    split.boundary[P] = lengths_;
    return split;
  }

  /// Collective: all PEs must call with their own target ranks.
  std::vector<uint64_t> SelectCollective(uint64_t target, PhaseStats* stats) {
    net::Comm& comm = *ctx_.comm;
    const int P = comm.size();
    const int me = comm.rank();

    target_ = target;
    SampleBootstrapBounds<R>(rf_.samples.per_run, lengths_, target_, &lo_,
                             &hi_);

    std::set<BlockKey> needed;
    bool done = TryAdvance(&needed);
    uint64_t rounds = 0;
    while (true) {
      bool all_done = comm.AllreduceAnd(done);
      if (all_done) break;
      ++rounds;

      // Fetch round on the nonblocking layer: my block requests go out per
      // owner; once every peer's requests are in, all the blocks this PE
      // serves in the round (its own first) are read with one ReadBatch,
      // and each peer's key frames are Isent as soon as they are packed.
      int req_tag = comm.AllocateCollectiveTag();
      int frame_tag = comm.AllocateCollectiveTag();
      std::vector<std::vector<ReqEntry>> requests(P);
      for (const BlockKey& key : needed) {
        int owner = rf_.table.FindOwner(key.run, key.start_pos);
        requests[owner].push_back(ReqEntry{key.start_pos, key.run});
        if (owner != me) ++fetch_counts_.blocks_requested;
      }

      std::vector<net::RecvRequest> req_recvs(P), frame_recvs(P);
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        frame_recvs[src] = comm.Irecv(src, frame_tag);
        req_recvs[src] = comm.Irecv(src, req_tag);
      }
      std::vector<net::SendRequest> sends;
      sends.reserve(2 * (P - 1));
      for (int off = 1; off < P; ++off) {
        int owner = (me + off) % P;
        sends.push_back(comm.Isend(
            owner, req_tag, requests[owner].data(),
            requests[owner].size() * sizeof(ReqEntry)));
      }
      // serve[s]: the blocks requester s asked this PE for, in the order
      // they are read.
      std::vector<std::vector<ReqEntry>> serve(P);
      serve[me] = std::move(requests[me]);
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        std::vector<uint8_t> bytes = req_recvs[src].Take();
        DEMSORT_CHECK_EQ(bytes.size() % sizeof(ReqEntry), 0u);
        serve[src].resize(bytes.size() / sizeof(ReqEntry));
        if (!bytes.empty()) {
          std::memcpy(serve[src].data(), bytes.data(), bytes.size());
        }
      }
      std::vector<io::Request> reads = ReadServedBlocks(serve, me);
      size_t next = 0;
      // Packs the keys of `entries`' blocks into `out`; returns the count.
      auto pack = [&](const std::vector<ReqEntry>& entries,
                      std::vector<uint8_t>* out) {
        out->clear();
        uint64_t keys = 0;
        for (const ReqEntry& req : entries) {
          reads[next].WaitOk();
          keys += AppendKeyFrame(req, read_buffers_[next].data(), out);
          ++next;
        }
        return keys;
      };
      std::vector<uint8_t> frames;
      pack(serve[me], &frames);
      IngestFrames(frames);
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        fetch_counts_.keys_served += pack(serve[src], &frames);
        fetch_counts_.blocks_served += serve[src].size();
        sends.push_back(
            comm.Isend(src, frame_tag, frames.data(), frames.size()));
      }
      for (int off = 1; off < P; ++off) {
        int src = (me - off + P) % P;
        IngestFrames(frame_recvs[src].Take());
      }
      for (net::SendRequest& sr : sends) sr.Wait();

      needed.clear();
      if (!done) done = TryAdvance(&needed);
    }
    if (stats != nullptr) stats->selection_rounds += rounds;

    uint64_t sum = 0;
    for (size_t r = 0; r < num_runs_; ++r) sum += lo_[r];
    DEMSORT_CHECK_EQ(sum, target_) << "external selection drift";
    return lo_;
  }

 private:
  struct BlockKey {
    uint32_t run;
    uint64_t start_pos;
    bool operator<(const BlockKey& o) const {
      return run != o.run ? run < o.run : start_pos < o.start_pos;
    }
  };
  struct ReqEntry {
    uint64_t start_pos;
    uint64_t run;
  };
  /// Precedes each block's `count` keys in a frame.
  struct FrameHeader {
    uint64_t start_pos;
    uint32_t run;
    uint32_t count;
  };
  // Both go on the wire as raw bytes: no padding.
  static_assert(std::has_unique_object_representations_v<ReqEntry>);
  static_assert(std::has_unique_object_representations_v<FrameHeader>);
  static_assert(sizeof(ReqEntry) == kRequestBytes);
  static_assert(sizeof(FrameHeader) == kFrameHeaderBytes);

  // ------------------------------------------------------ block access --
  /// Block (aligned to the owner piece's layout) containing position `pos`
  /// of `run`.
  BlockKey BlockContaining(uint32_t run, uint64_t pos) const {
    int owner = rf_.table.FindOwner(run, pos);
    uint64_t pstart = rf_.table.piece_start[run][owner];
    uint64_t rel = pos - pstart;
    return BlockKey{run, pstart + rel / epb_ * epb_};
  }

  const std::vector<Key>* CacheLookup(const BlockKey& key) const {
    auto it = cache_.find(key);
    return it == cache_.end() ? nullptr : &it->second;
  }

  void CacheInsert(const BlockKey& key, std::vector<Key> keys) {
    if (cache_.count(key) > 0) return;
    cache_.emplace(key, std::move(keys));
    cache_fifo_.push_back(key);
    while (cache_fifo_.size() > cache_capacity_) {
      cache_.erase(cache_fifo_.front());
      cache_fifo_.pop_front();
    }
  }

  /// One of *my* piece blocks a request names, and how many records of it
  /// are real.
  io::BlockId ServedBlock(const ReqEntry& req, size_t* count) const {
    DEMSORT_CHECK_LT(req.run, num_runs_);
    const RunPiece<R>& piece = rf_.runs.pieces[req.run];
    DEMSORT_CHECK_GE(req.start_pos, piece.global_start);
    uint64_t rel = req.start_pos - piece.global_start;
    DEMSORT_CHECK_EQ(rel % epb_, 0u);
    size_t block_index = static_cast<size_t>(rel / epb_);
    DEMSORT_CHECK_LT(block_index, piece.blocks.size());
    *count = static_cast<size_t>(std::min<uint64_t>(epb_, piece.size - rel));
    return piece.blocks[block_index];
  }

  /// Submits the reads of every block in `serve` (requester `me` first,
  /// then the others in rank order, as the caller packs them) as one batch
  /// into the recycled read buffers; request i reads into read_buffers_[i].
  std::vector<io::Request> ReadServedBlocks(
      const std::vector<std::vector<ReqEntry>>& serve, int me) {
    const int P = static_cast<int>(serve.size());
    std::vector<std::pair<io::BlockId, void*>> ops;
    auto add = [&](const std::vector<ReqEntry>& entries) {
      for (const ReqEntry& req : entries) {
        if (read_buffers_.size() == ops.size()) {
          read_buffers_.emplace_back(ctx_.bm->block_size());
        }
        size_t count;
        ops.emplace_back(ServedBlock(req, &count),
                         read_buffers_[ops.size()].data());
      }
    };
    add(serve[me]);
    for (int off = 1; off < P; ++off) add(serve[(me - off + P) % P]);
    return ctx_.bm->ReadBatch(ops);
  }

  /// Appends the frame of one served block, read into `block`: its header
  /// and the keys of its records. Returns the number of keys.
  size_t AppendKeyFrame(const ReqEntry& req, const uint8_t* block,
                        std::vector<uint8_t>* out) const {
    size_t count;
    ServedBlock(req, &count);
    // FrameHeader::count is 32-bit; a block never holds that many records
    // today, but a silent truncation here would corrupt the fetch protocol
    // — the same overflow class the paper re-implemented MPI_Alltoallv to
    // escape. Fail loudly at the pack site.
    DEMSORT_CHECK_LE(count, uint64_t{std::numeric_limits<uint32_t>::max()})
        << "selection frame count overflows the 32-bit header";
    FrameHeader header{req.start_pos, static_cast<uint32_t>(req.run),
                       static_cast<uint32_t>(count)};
    size_t old = out->size();
    out->resize(old + sizeof(header) + count * sizeof(Key));
    uint8_t* dst = out->data() + old;
    std::memcpy(dst, &header, sizeof(header));
    dst += sizeof(header);
    const R* records = reinterpret_cast<const R*>(block);
    for (size_t i = 0; i < count; ++i) {
      std::memcpy(dst + i * sizeof(Key), &Traits::KeyOf(records[i]),
                  sizeof(Key));
    }
    return count;
  }

  void IngestFrames(const std::vector<uint8_t>& frames) {
    size_t offset = 0;
    while (offset < frames.size()) {
      FrameHeader header;
      std::memcpy(&header, frames.data() + offset, sizeof(header));
      offset += sizeof(header);
      std::vector<Key> keys(header.count);
      std::memcpy(keys.data(), frames.data() + offset,
                  header.count * sizeof(Key));
      offset += header.count * sizeof(Key);
      CacheInsert(BlockKey{header.run, header.start_pos}, std::move(keys));
    }
    DEMSORT_CHECK_EQ(offset, frames.size());
  }

  /// Exact count of run-i elements preceding pivot (xkey from run jx at
  /// pos xpos), or nullopt with the next missing probe block added to
  /// `needed`. Binary search over the sample-bracketed window touches only
  /// O(log(window/B)) blocks — the probe path is deterministic, so repeated
  /// calls across fetch rounds walk the same (now cached) prefix and extend
  /// it by the freshly delivered block.
  std::optional<uint64_t> ExactCount(size_t i, const Key& xkey, size_t jx,
                                     uint64_t xpos,
                                     std::set<BlockKey>* needed) {
    if (i == jx) return xpos;
    uint64_t lo, hi;
    SampleCountBounds<R>(rf_.samples.per_run[i], lengths_[i], i, xkey, jx,
                         &lo, &hi);
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      BlockKey key = BlockContaining(static_cast<uint32_t>(i), mid);
      const std::vector<Key>* block = CacheLookup(key);
      if (block == nullptr) {
        needed->insert(key);
        return std::nullopt;
      }
      if (PrecedesInTieOrder<R>((*block)[mid - key.start_pos], i, xkey,
                                jx)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Advances the pivot loop as far as the cache allows. Returns true when
  /// converged; otherwise `needed` holds the blocks to fetch next round.
  bool TryAdvance(std::set<BlockKey>* needed) {
    while (true) {
      // Pick the run with the widest open range as pivot source.
      size_t jp = num_runs_;
      uint64_t widest = 0;
      for (size_t j = 0; j < num_runs_; ++j) {
        if (hi_[j] > lo_[j] && hi_[j] - lo_[j] > widest) {
          widest = hi_[j] - lo_[j];
          jp = j;
        }
      }
      if (jp == num_runs_) return true;  // converged
      uint64_t mid = lo_[jp] + (hi_[jp] - lo_[jp]) / 2;

      BlockKey pivot_key = BlockContaining(static_cast<uint32_t>(jp), mid);
      const std::vector<Key>* pivot_block = CacheLookup(pivot_key);
      if (pivot_block == nullptr) {
        needed->insert(pivot_key);
        return false;
      }
      const Key xkey = (*pivot_block)[mid - pivot_key.start_pos];

      uint64_t pivot_rank = 0;
      std::vector<uint64_t> counts(num_runs_);
      bool blocked = false;
      for (size_t i = 0; i < num_runs_; ++i) {
        std::optional<uint64_t> c = ExactCount(i, xkey, jp, mid, needed);
        if (!c.has_value()) {
          blocked = true;
          continue;
        }
        counts[i] = *c;
        pivot_rank += *c;
      }
      if (blocked) return false;

      if (pivot_rank == target_) {
        for (size_t i = 0; i < num_runs_; ++i) {
          lo_[i] = counts[i];
          hi_[i] = counts[i];
        }
        return true;
      }
      if (pivot_rank < target_) {
        for (size_t i = 0; i < num_runs_; ++i) {
          lo_[i] = std::max(lo_[i], counts[i]);
        }
        lo_[jp] = std::max(lo_[jp], mid + 1);
      } else {
        for (size_t i = 0; i < num_runs_; ++i) {
          hi_[i] = std::min(hi_[i], counts[i]);
        }
        hi_[jp] = std::min(hi_[jp], mid);
      }
    }
  }

  PeContext& ctx_;
  const SortConfig& config_;
  const RunFormationResult<R>& rf_;
  const size_t epb_;
  const size_t num_runs_;
  const size_t cache_capacity_;
  std::vector<uint64_t> lengths_;  // run lengths

  uint64_t target_ = 0;
  std::vector<uint64_t> lo_;
  std::vector<uint64_t> hi_;

  std::map<BlockKey, std::vector<Key>> cache_;
  std::deque<BlockKey> cache_fifo_;
  /// Block-sized read targets, recycled from fetch round to fetch round.
  std::vector<AlignedBuffer> read_buffers_;
  FetchCounts fetch_counts_;
};

/// Checkpoint image of a completed phase 2: the replicated splitter matrix
/// is the ONLY selection output the rest of the pipeline consumes.
inline void SaveSplitterMatrix(ByteWriter& w, const SplitterMatrix& split) {
  w.Pod<uint64_t>(split.boundary.size());
  for (const auto& row : split.boundary) w.PodVec(row);
}

inline Status LoadSplitterMatrix(ByteReader& r, int num_pes,
                                 SplitterMatrix* split) {
  uint64_t rows = 0;
  DEMSORT_RETURN_IF_ERROR(r.Pod(&rows));
  if (rows != static_cast<uint64_t>(num_pes) + 1) {
    return Status::InvalidArgument("splitter matrix has wrong height");
  }
  split->boundary.resize(static_cast<size_t>(rows));
  for (auto& row : split->boundary) {
    DEMSORT_RETURN_IF_ERROR(r.PodVec(&row));
  }
  return Status::OK();
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_EXTERNAL_SELECTION_H_
