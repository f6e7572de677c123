// Phase 3 of CANONICALMERGESORT: every PE merges the R sorted slices it now
// owns (one extent chain per run) into its final, locally striped output.
// Purely local: no communication, each element read and written exactly once.
//
// Block fetches are driven by a prediction sequence — the first record of
// every physical block, consumed in ascending key order ([11]'s variant of
// [14]'s technique) — through a bounded buffer pool; a reader that outruns
// the prediction demand-fetches, so the prediction quality affects only
// performance, never correctness. Consumed blocks are freed immediately,
// keeping the merge (nearly) in place.
//
// One engine at every worker count W: the merge is range-partitioned across the
// PE's thread pool, and W = 1 is simply the single partition — no pivots, no
// cuts, no planner reads, merged inline on the caller. Pivot keys are picked
// from the prediction sequence (the per-block first_record index, weighted by
// block fill) at output ranks t*N/W, then refined to EXACT per-run cuts: within
// each run, the single block possibly straddling the pivot is read once and
// lower-bound'ed by pure key order, so partition t receives exactly the records
// with key < pivot_{t+1} (ties all land right of the cut). Cuts are therefore
// globally consistent and concatenating the partitions reproduces the
// sequential merge record for record. Each worker drives its own sentinel loser
// tree + prefetcher over its private slice of the segment lists; boundary
// blocks shared by adjacent workers are handed out as preloaded copies of the
// planner's read (never re-fetched, freed exactly once by the worker consuming
// the block's tail). Workers write the grid-aligned body of their output
// partition directly through their own striped writer; the main thread stitches
// head/tail boundary spans through the output's striped writer and adopts the
// body blocks in between, so the output manifest (ordered block list + first
// records + tail fill) is that of one sequential merge whatever W is.
//
// The inner loop is batched: one loser-tree replay per span, where a span
// is every consecutive winner record up to the runner-up's head (galloped
// in the winner's contiguous buffer, entered with timsort-style hysteresis
// so uniformly interleaved runs pay nothing over a record-at-a-time loop),
// with tree-free galloping when only two sources remain live and straight
// streaming for the last one.
#ifndef DEMSORT_CORE_FINAL_MERGE_H_
#define DEMSORT_CORE_FINAL_MERGE_H_

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "core/run_index.h"
#include "io/striped_writer.h"
#include "obs/trace.h"
#include "par/loser_tree.h"
#include "par/thread_pool.h"
#include "util/aligned_buffer.h"
#include "util/logging.h"
#include "util/timer.h"

namespace demsort::core {

template <typename R>
struct MergeOutput {
  std::vector<io::BlockId> blocks;
  std::vector<R> block_first_records;
  uint64_t num_elements = 0;
  size_t last_block_fill = 0;
};

namespace internal {

/// One physical block's worth of a run's extent chain.
template <typename R>
struct MergeSegment {
  io::BlockId block;
  uint32_t skip = 0;  // leading elements belonging to another PE
  uint32_t take = 0;  // elements to consume
  R first_record{};   // prediction key (lower bound of the block's content)
  /// False for a boundary block whose tail is consumed by a later worker:
  /// only the tail consumer frees, so every block is freed exactly once.
  bool free_block = true;
  /// The planner already read this block; `buffer` is filled and `request`
  /// complete, so the prefetcher must neither fetch it nor count it against
  /// a pool slot it acquired itself.
  bool preloaded = false;
  // Fetch state.
  enum State : uint8_t { kNotIssued, kInFlight, kReleased } state = kNotIssued;
  AlignedBuffer buffer;
  io::Request request;
};

/// The prediction sequence: every (run, segment) in ascending first_record
/// order, ties by (run, segment) — the order the merge consumes blocks in.
template <typename R>
std::vector<std::pair<size_t, size_t>> PredictionOrder(
    const std::vector<std::vector<MergeSegment<R>>>& segments) {
  using Less = typename RecordTraits<R>::Less;
  Less less;
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t j = 0; j < segments.size(); ++j) {
    for (size_t s = 0; s < segments[j].size(); ++s) order.emplace_back(j, s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](const auto& a, const auto& b) {
                     const R& ra = segments[a.first][a.second].first_record;
                     const R& rb = segments[b.first][b.second].first_record;
                     if (less(ra, rb)) return true;
                     if (less(rb, ra)) return false;
                     return a < b;
                   });
  return order;
}

template <typename R>
class MergePrefetcher {
 public:
  MergePrefetcher(io::BlockManager* bm,
                  std::vector<std::vector<MergeSegment<R>>>* segments,
                  size_t pool_size)
      : bm_(bm),
        segments_(segments),
        pool_size_(pool_size),
        prediction_(PredictionOrder(*segments)) {
    // Preloaded segments arrive complete; count them so pool accounting
    // stays balanced when Release decrements.
    for (auto& run : *segments_) {
      for (auto& seg : run) {
        if (seg.preloaded) {
          DEMSORT_CHECK(seg.state == MergeSegment<R>::kInFlight);
          ++outstanding_;
        }
      }
    }
    FillFromPrediction();
  }

  /// Blocking access to segment (run, idx)'s records; demand-fetches if the
  /// prediction has not reached it yet.
  const R* Acquire(size_t run, size_t idx) {
    MergeSegment<R>& seg = (*segments_)[run][idx];
    DEMSORT_CHECK(seg.state != MergeSegment<R>::kReleased);
    if (seg.state == MergeSegment<R>::kNotIssued) {
      ++demand_fetches_;
      // A demand fetch means the prediction sequence fell behind the
      // consumer here — each instant marks a spot worth a bigger pool.
      TRACE_INSTANT2("merge", "merge.demand_fetch", "run", run, "segment",
                     idx);
      Issue(run, idx);
    }
    if (!seg.request.done()) {
      int64_t t0 = NowNanos();
      seg.request.WaitOk();
      io_wait_ns_ += NowNanos() - t0;
    } else {
      seg.request.WaitOk();
    }
    return reinterpret_cast<const R*>(seg.buffer.data()) + seg.skip;
  }

  /// Declares segment consumed: frees its buffer and (when this reader owns
  /// it) its disk block, and lets the prediction issue the next fetch.
  void Release(size_t run, size_t idx) {
    MergeSegment<R>& seg = (*segments_)[run][idx];
    DEMSORT_CHECK(seg.state == MergeSegment<R>::kInFlight);
    seg.state = MergeSegment<R>::kReleased;
    seg.buffer = AlignedBuffer();
    --outstanding_;
    if (seg.free_block) bm_->Free(seg.block);
    FillFromPrediction();
  }

  uint64_t demand_fetches() const { return demand_fetches_; }
  /// Time this reader spent blocked on reads that were not complete yet.
  uint64_t io_wait_ns() const { return io_wait_ns_; }

 private:
  void Issue(size_t run, size_t idx) {
    MergeSegment<R>& seg = (*segments_)[run][idx];
    if (seg.state != MergeSegment<R>::kNotIssued) return;
    seg.state = MergeSegment<R>::kInFlight;
    seg.buffer = AlignedBuffer(bm_->block_size());
    seg.request = bm_->ReadAsync(seg.block, seg.buffer.data());
    ++outstanding_;
  }

  void FillFromPrediction() {
    while (prediction_cursor_ < prediction_.size() &&
           outstanding_ < pool_size_) {
      auto [run, idx] = prediction_[prediction_cursor_++];
      if ((*segments_)[run][idx].state == MergeSegment<R>::kNotIssued) {
        Issue(run, idx);
      }
    }
  }

  io::BlockManager* bm_;
  std::vector<std::vector<MergeSegment<R>>>* segments_;
  size_t pool_size_;
  std::vector<std::pair<size_t, size_t>> prediction_;
  size_t prediction_cursor_ = 0;
  size_t outstanding_ = 0;
  uint64_t demand_fetches_ = 0;
  uint64_t io_wait_ns_ = 0;
};

/// Flattens extent chains into per-run physical segment lists.
template <typename R>
std::vector<std::vector<MergeSegment<R>>> BuildMergeSegments(
    std::vector<std::vector<Extent<R>>>& extents_per_run, size_t epb) {
  const size_t num_runs = extents_per_run.size();
  std::vector<std::vector<MergeSegment<R>>> segments(num_runs);
  for (size_t j = 0; j < num_runs; ++j) {
    for (const Extent<R>& ext : extents_per_run[j]) {
      uint64_t todo = ext.count;
      for (size_t bi = 0; bi < ext.blocks.size() && todo > 0; ++bi) {
        MergeSegment<R> seg;
        seg.block = ext.blocks[bi];
        seg.skip = bi == 0 ? static_cast<uint32_t>(ext.first_block_offset) : 0;
        seg.take = static_cast<uint32_t>(
            std::min<uint64_t>(epb - seg.skip, todo));
        seg.first_record = ext.block_first_records[bi];
        todo -= seg.take;
        segments[j].push_back(std::move(seg));
      }
      DEMSORT_CHECK_EQ(todo, 0u) << "extent blocks do not cover its count";
    }
  }
  return segments;
}

/// Per-run consumed-record prefix sums: prefix[j][s] = records of run j in
/// segments before s; prefix[j].back() = the run's total.
template <typename R>
std::vector<std::vector<uint64_t>> SegmentPrefixSums(
    const std::vector<std::vector<MergeSegment<R>>>& segments) {
  std::vector<std::vector<uint64_t>> prefix(segments.size());
  for (size_t j = 0; j < segments.size(); ++j) {
    prefix[j].resize(segments[j].size() + 1);
    prefix[j][0] = 0;
    for (size_t s = 0; s < segments[j].size(); ++s) {
      prefix[j][s + 1] = prefix[j][s] + segments[j][s].take;
    }
  }
  return prefix;
}

/// The range partition of a parallel merge: per-boundary, per-run cut
/// positions (in consumed-record coordinates) plus the boundary blocks read
/// while planning, to be handed to workers as preloaded buffers.
template <typename R>
struct MergePlan {
  size_t workers = 1;
  /// cuts[t][j]: records of run j belonging to partitions < t. cuts[0] = 0,
  /// cuts[workers][j] = run j's total; elementwise non-decreasing in t.
  std::vector<std::vector<uint64_t>> cuts;
  /// offsets[t] = global output offset of partition t (= sum_j cuts[t][j]).
  std::vector<uint64_t> offsets;
  std::map<std::pair<size_t, size_t>, AlignedBuffer> preloads;
};

/// Exact range partitioning over the per-block first_record index. Pivot t
/// is the first_record of the prediction-sequence block containing output
/// rank t*N/W (block-granular, so pivots cost no I/O); the cut of run j is
/// then prefix[j][s] + lower_bound inside the single straddling segment s —
/// one synchronous block read per (boundary, run) at most, cached across
/// boundaries. Cuts use pure key order (every tie goes right), so they are
/// consistent across runs and the partitions concatenate to exactly the
/// sequential merge. Duplicate-heavy inputs collapse neighboring cuts:
/// still correct, just less parallel.
template <typename R>
MergePlan<R> PlanMergePartitions(
    io::BlockManager* bm,
    const std::vector<std::vector<MergeSegment<R>>>& segments,
    const std::vector<std::vector<uint64_t>>& prefix, size_t workers) {
  using Less = typename RecordTraits<R>::Less;
  Less less;
  const size_t num_runs = segments.size();
  uint64_t total = 0;
  for (size_t j = 0; j < num_runs; ++j) total += prefix[j].back();

  MergePlan<R> plan;
  plan.workers = workers;
  plan.cuts.assign(workers + 1, std::vector<uint64_t>(num_runs, 0));
  for (size_t j = 0; j < num_runs; ++j) {
    plan.cuts[workers][j] = prefix[j].back();
  }

  // Pivots walk the prediction order with cumulative takes; the single
  // partition (W = 1) has no pivots and skips the sort.
  std::vector<std::pair<size_t, size_t>> order;
  if (workers > 1) order = PredictionOrder(segments);

  auto preload = [&](size_t j, size_t s) -> const AlignedBuffer& {
    auto key = std::make_pair(j, s);
    auto it = plan.preloads.find(key);
    if (it == plan.preloads.end()) {
      AlignedBuffer buf(bm->block_size());
      bm->ReadSync(segments[j][s].block, buf.data());
      it = plan.preloads.emplace(key, std::move(buf)).first;
    }
    return it->second;
  };

  size_t oi = 0;
  uint64_t cum = 0;
  auto at = [&](size_t i) -> const MergeSegment<R>& {
    return segments[order[i].first][order[i].second];
  };
  for (size_t t = 1; t < workers; ++t) {
    uint64_t target = t * total / workers;
    while (oi < order.size() && cum + at(oi).take <= target) {
      cum += at(oi).take;
      ++oi;
    }
    DEMSORT_CHECK_LT(oi, order.size());
    const R pivot = at(oi).first_record;

    for (size_t j = 0; j < num_runs; ++j) {
      const auto& segs = segments[j];
      // First segment whose first_record >= pivot. Everything in earlier
      // segments is <= that segment's first_record (sorted run), hence
      // < pivot; everything from later segments is >= pivot.
      size_t hi = std::partition_point(
                      segs.begin(), segs.end(),
                      [&](const MergeSegment<R>& sg) {
                        return less(sg.first_record, pivot);
                      }) -
                  segs.begin();
      uint64_t cut = 0;
      if (hi > 0) {
        size_t s = hi - 1;
        const AlignedBuffer& buf = preload(j, s);
        const R* recs =
            reinterpret_cast<const R*>(buf.data()) + segs[s].skip;
        cut = prefix[j][s] +
              (std::lower_bound(recs, recs + segs[s].take, pivot, less) -
               recs);
      }
      DEMSORT_CHECK_GE(cut, plan.cuts[t - 1][j]);
      plan.cuts[t][j] = cut;
    }
  }

  plan.offsets.assign(workers + 1, 0);
  for (size_t t = 1; t <= workers; ++t) {
    uint64_t sum = 0;
    for (size_t j = 0; j < num_runs; ++j) sum += plan.cuts[t][j];
    plan.offsets[t] = sum;
  }
  DEMSORT_CHECK_EQ(plan.offsets[workers], total);
  return plan;
}

/// Worker t's private view of the segment lists: the sub-range
/// [cuts[t], cuts[t+1]) of every run, with skip/take narrowed on boundary
/// segments. Any segment the planner read is handed over as a preloaded
/// copy, so blocks shared between adjacent workers are read once (by the
/// planner), never raced, and freed exactly once — by the worker consuming
/// the segment's last record.
template <typename R>
std::vector<std::vector<MergeSegment<R>>> SliceWorkerSegments(
    const std::vector<std::vector<MergeSegment<R>>>& segments,
    const std::vector<std::vector<uint64_t>>& prefix,
    const std::vector<uint64_t>& cut_lo, const std::vector<uint64_t>& cut_hi,
    const std::map<std::pair<size_t, size_t>, AlignedBuffer>& preloads,
    size_t block_size) {
  const size_t num_runs = segments.size();
  std::vector<std::vector<MergeSegment<R>>> out(num_runs);
  for (size_t j = 0; j < num_runs; ++j) {
    uint64_t lo = cut_lo[j];
    uint64_t hi = cut_hi[j];
    if (lo >= hi) continue;
    size_t s = std::upper_bound(prefix[j].begin(), prefix[j].end(), lo) -
               prefix[j].begin() - 1;
    for (; prefix[j][s] < hi; ++s) {
      const MergeSegment<R>& src = segments[j][s];
      uint64_t seg_begin = prefix[j][s];
      uint64_t seg_end = seg_begin + src.take;
      uint64_t from = std::max(lo, seg_begin);
      uint64_t to = std::min(hi, seg_end);
      MergeSegment<R> seg;
      seg.block = src.block;
      seg.first_record = src.first_record;
      seg.skip = src.skip + static_cast<uint32_t>(from - seg_begin);
      seg.take = static_cast<uint32_t>(to - from);
      seg.free_block = to == seg_end;
      auto pl = preloads.find({j, s});
      if (pl != preloads.end()) {
        seg.preloaded = true;
        seg.state = MergeSegment<R>::kInFlight;
        seg.buffer = AlignedBuffer(block_size);
        std::memcpy(seg.buffer.data(), pl->second.data(), block_size);
      }
      out[j].push_back(std::move(seg));
    }
  }
  return out;
}

/// Prefetch pool for one worker. The single partition (W = 1) gets the
/// whole configured pool, or by default two buffers per run and per disk
/// plus two (the sizing ablation_prefetch sweeps); with W > 1 the
/// configured pool is split across partitions with a floor of two buffers
/// per live run per worker (classic double buffering), so no worker can be
/// starved below progress.
inline size_t WorkerPrefetchPool(const SortConfig& config, size_t num_runs,
                                 size_t live_runs, size_t num_disks,
                                 size_t workers) {
  if (workers <= 1) {
    return config.prefetch_buffers != 0
               ? config.prefetch_buffers
               : std::max<size_t>(2 * num_runs, 2 * num_disks) + 2;
  }
  size_t pool =
      config.prefetch_buffers != 0
          ? std::max<size_t>(config.prefetch_buffers / workers, 2 * live_runs)
          : std::max<size_t>(2 * live_runs, 2 * num_disks / workers + 2);
  return std::max<size_t>(pool, 2);
}

/// Workers the merge actually uses: the pool size, capped so every worker
/// owns at least a couple of blocks' worth of output.
inline size_t EffectiveMergeWorkers(const par::ThreadPool& pool,
                                    uint64_t total_elements, size_t epb) {
  return std::min<uint64_t>(
      pool.num_threads(), std::max<uint64_t>(1, total_elements / (2 * epb)));
}

/// Galloping span search: the first index in [lo, hi) whose record fails
/// `take` (a monotone predicate over the sorted records — true on a prefix).
/// Exponential probes from lo, then partition_point inside the bracket:
/// ~1 compare when the span is empty or unit-length, O(log span) when it is
/// long — unlike a plain bound over [lo, hi), which pays O(log(hi-lo)) even
/// for the unit spans that dominate uniformly interleaved runs.
template <typename R, typename Take>
size_t GallopSpan(const R* base, size_t lo, size_t hi, const Take& take) {
  if (lo == hi || !take(base[lo])) return lo;
  size_t good = 0;  // offset from lo; prefix [lo, lo+good] known good
  size_t next = 1;
  while (lo + next < hi && take(base[lo + next])) {
    good = next;
    next <<= 1;
  }
  const R* first = base + lo + good + 1;
  const R* last = base + std::min(hi, lo + next);
  return static_cast<size_t>(std::partition_point(first, last, take) - base);
}

/// The merge inner loop over one (slice of the) segment set. `emit(ptr, n)`
/// receives sorted spans and must copy before returning. Returns records
/// emitted. Drives the sentinel loser tree span-at-a-time (one replay per
/// span).
template <typename R, typename Emit>
uint64_t MergeLoop(MergePrefetcher<R>& prefetcher,
                   std::vector<std::vector<MergeSegment<R>>>& segments,
                   Emit&& emit) {
  using Less = typename RecordTraits<R>::Less;
  Less less;
  const size_t num_runs = segments.size();
  if (num_runs == 0) return 0;

  struct Cursor {
    size_t seg = 0;
    size_t offset = 0;  // within the segment
    const R* records = nullptr;
  };
  std::vector<Cursor> cursors(num_runs);
  uint64_t merged = 0;

  par::SentinelLoserTree<R, Less> tree(std::max<size_t>(1, num_runs),
                                       RecordTraits<R>::MaxSentinel(), less);
  for (size_t j = 0; j < num_runs; ++j) {
    if (!segments[j].empty()) {
      cursors[j].records = prefetcher.Acquire(j, 0);
      tree.InitSource(j, cursors[j].records[0]);
    }
  }
  tree.Build();

  // Streams the rest of run j (current position to the end), whole
  // segment-spans at a time.
  auto emit_rest_of_run = [&](size_t j) {
    Cursor& cur = cursors[j];
    while (true) {
      const MergeSegment<R>& sg = segments[j][cur.seg];
      if (cur.offset < sg.take) {
        emit(cur.records + cur.offset, sg.take - cur.offset);
        merged += sg.take - cur.offset;
      }
      prefetcher.Release(j, cur.seg);
      ++cur.seg;
      cur.offset = 0;
      if (cur.seg == segments[j].size()) return;
      cur.records = prefetcher.Acquire(j, cur.seg);
    }
  };

  // Batched main loop with timsort-style hysteresis: single-record steps
  // (one replay, no runner-up walk) until one source has won kMinGallop
  // times in a row — evidence of a locally disjoint key range — then a
  // galloped span up to the runner-up's head (ties included when the
  // winner's source index is smaller — the stable order a one-record-per-
  // replay loop produces), with one replay for the whole span. Uniformly
  // interleaved runs thus cost the same as that loop, while clustered runs
  // collapse to O(log span) per span.
  constexpr size_t kMinGallop = 4;
  size_t last_winner = num_runs;
  size_t streak = 0;
  while (tree.live() > 2) {
    size_t j = tree.WinnerSource();
    Cursor& cur = cursors[j];
    const MergeSegment<R>& sg = segments[j][cur.seg];
    if (j == last_winner) {
      ++streak;
    } else {
      last_winner = j;
      streak = 1;
    }
    size_t hi;
    if (streak < kMinGallop) {
      hi = cur.offset + 1;
    } else {
      size_t ru = tree.RunnerUpSource();
      const R& limit = tree.Item(ru);
      const R* base = cur.records;
      hi = j < ru
               ? GallopSpan(base, cur.offset, sg.take,
                            [&](const R& rec) { return !less(limit, rec); })
               : GallopSpan(base, cur.offset, sg.take,
                            [&](const R& rec) { return less(rec, limit); });
    }
    emit(cur.records + cur.offset, hi - cur.offset);
    merged += hi - cur.offset;
    cur.offset = hi;
    if (cur.offset == sg.take) {
      prefetcher.Release(j, cur.seg);
      ++cur.seg;
      cur.offset = 0;
      if (cur.seg == segments[j].size()) {
        tree.ExhaustWinner();
        continue;
      }
      cur.records = prefetcher.Acquire(j, cur.seg);
    }
    tree.ReplaceWinner(cur.records[cur.offset]);
  }

  if (tree.live() == 2) {
    // Two-source gallop: no tree replays at all, just head-vs-head binary
    // searches. a < b so ties emit from a first.
    size_t a = num_runs, b = num_runs;
    for (size_t s = 0; s < num_runs; ++s) {
      if (tree.IsLive(s)) (a == num_runs ? a : b) = s;
    }
    while (true) {
      Cursor& ca = cursors[a];
      Cursor& cb = cursors[b];
      const R& ha = ca.records[ca.offset];
      const R& hb = cb.records[cb.offset];
      if (!less(hb, ha)) {
        const MergeSegment<R>& sa = segments[a][ca.seg];
        size_t hi =
            GallopSpan(ca.records, ca.offset, sa.take,
                       [&](const R& rec) { return !less(hb, rec); });
        emit(ca.records + ca.offset, hi - ca.offset);
        merged += hi - ca.offset;
        ca.offset = hi;
        if (ca.offset == sa.take) {
          prefetcher.Release(a, ca.seg);
          ++ca.seg;
          ca.offset = 0;
          if (ca.seg == segments[a].size()) {
            emit_rest_of_run(b);
            break;
          }
          ca.records = prefetcher.Acquire(a, ca.seg);
        }
      } else {
        const MergeSegment<R>& sb = segments[b][cb.seg];
        size_t hi =
            GallopSpan(cb.records, cb.offset, sb.take,
                       [&](const R& rec) { return less(rec, ha); });
        emit(cb.records + cb.offset, hi - cb.offset);
        merged += hi - cb.offset;
        cb.offset = hi;
        if (cb.offset == sb.take) {
          prefetcher.Release(b, cb.seg);
          ++cb.seg;
          cb.offset = 0;
          if (cb.seg == segments[b].size()) {
            emit_rest_of_run(a);
            break;
          }
          cb.records = prefetcher.Acquire(b, cb.seg);
        }
      }
    }
  } else if (tree.live() == 1) {
    emit_rest_of_run(tree.WinnerSource());
  }
  return merged;
}

/// What one merge worker reports back for the phase gauges.
struct MergeWorkerMetrics {
  uint64_t merged = 0;
  int64_t wall_ns = 0;
  uint64_t io_wait_ns = 0;
  uint64_t demand_fetches = 0;
};

/// Writes one worker's output partition. The partition's global output range
/// [offset, offset+count) is split on the global block grid: the span up to
/// the first grid line (head) and the one after the last (tail) stay in
/// memory for the stitching pass; the grid-aligned body in between goes
/// straight from this worker through its own striped writer. A partition
/// starting at offset 0 (the only one at W = 1) has no head.
template <typename R>
class PartitionBlockWriter {
 public:
  PartitionBlockWriter(io::BlockManager* bm, size_t epb,
                       uint64_t global_offset, uint64_t count,
                       size_t write_window)
      : body_(bm, write_window) {
    head_left_ = std::min<uint64_t>((epb - global_offset % epb) % epb, count);
    body_size_ = (count - head_left_) / epb * epb;
    body_left_ = head_left_ == 0 ? body_size_ : 0;
    head_.reserve(head_left_);
  }

  void Append(const R* records, size_t n) {
    // body_left_ opens only once the head is complete, so one compare
    // routes the common span straight to the body.
    if (n <= body_left_) {
      body_.AppendSpan(records, n);
      body_left_ -= n;
      return;
    }
    if (head_left_ > 0) {
      size_t take = std::min<uint64_t>(n, head_left_);
      head_.insert(head_.end(), records, records + take);
      head_left_ -= take;
      if (head_left_ == 0) body_left_ = body_size_;
      records += take;
      n -= take;
    }
    size_t take = std::min<uint64_t>(n, body_left_);
    if (take > 0) {
      body_.AppendSpan(records, take);
      body_left_ -= take;
      records += take;
      n -= take;
    }
    if (n > 0) tail_.insert(tail_.end(), records, records + n);
  }

  void Finish() {
    DEMSORT_CHECK_EQ(body_.pending_fill(), 0u)
        << "partition body not grid-aligned";
    body_.Finish();
  }

  const std::vector<R>& head() const { return head_; }
  const std::vector<R>& tail() const { return tail_; }
  const std::vector<io::BlockId>& blocks() const { return body_.blocks(); }
  const std::vector<R>& block_first_records() const {
    return body_.block_first_records();
  }
  uint64_t io_wait_ns() const { return body_.io_wait_ns(); }

 private:
  io::StripedWriter<R> body_;
  uint64_t head_left_ = 0;
  uint64_t body_size_ = 0;
  uint64_t body_left_ = 0;
  std::vector<R> head_;
  std::vector<R> tail_;
};

/// The one merge engine behind both entry points. Plans W range partitions
/// of this PE's runs (W = 1 is the single partition: no cuts, no planner
/// reads) and slices the segment lists; Run then merges every partition on
/// the PE's pool (inline on the caller at W = 1), each with its own
/// prefetcher over its slice. Consumes the extents (their blocks are freed
/// as they are read).
template <typename R>
class PartitionedMerge {
 public:
  PartitionedMerge(PeContext& ctx, const SortConfig& config,
                   std::vector<std::vector<Extent<R>>>& extents_per_run)
      : ctx_(ctx), config_(config), num_runs_(extents_per_run.size()) {
    const size_t epb = config.ElementsPerBlock<R>();
    std::vector<std::vector<MergeSegment<R>>> segments =
        BuildMergeSegments(extents_per_run, epb);
    std::vector<std::vector<uint64_t>> prefix = SegmentPrefixSums(segments);
    uint64_t total = 0;
    for (const auto& p : prefix) total += p.back();
    plan_ = PlanMergePartitions(ctx.bm, segments, prefix,
                                EffectiveMergeWorkers(*ctx.pool, total, epb));
    slices_.reserve(plan_.workers);
    for (size_t t = 0; t < plan_.workers; ++t) {
      slices_.push_back(SliceWorkerSegments(segments, prefix, plan_.cuts[t],
                                            plan_.cuts[t + 1], plan_.preloads,
                                            ctx.bm->block_size()));
    }
  }

  size_t workers() const { return plan_.workers; }
  uint64_t total() const { return plan_.offsets.back(); }

  /// Runs `partition(t, offset, count, merge_into)` for t = 0..W-1, where
  /// partition t owns global output range [offset, offset+count) and
  /// `merge_into(emit)` streams its records in order as `emit(ptr, n)` spans.
  /// `partition` returns its own I/O wait in ns (e.g. blocked writes),
  /// which adds to its prefetcher's read waits; the workers' metrics are
  /// summed into `stats`.
  template <typename Partition>
  void Run(PhaseStats* stats, Partition&& partition) {
    std::vector<MergeWorkerMetrics> metrics(workers());
    ctx_.pool->ParallelFor(workers(), [&](size_t t) {
      const uint64_t offset = plan_.offsets[t];
      const uint64_t count = plan_.offsets[t + 1] - offset;
      TRACE_SPAN2("merge", "merge.partition", "worker", t, "elements", count);
      auto& segs = slices_[t];
      size_t live = 0;
      for (const auto& run : segs) {
        if (!run.empty()) ++live;
      }
      MergePrefetcher<R> prefetcher(
          ctx_.bm, &segs,
          WorkerPrefetchPool(config_, num_runs_, live, ctx_.bm->num_disks(),
                             workers()));
      uint64_t merged = 0;
      auto merge_into = [&](auto&& emit) {
        merged = MergeLoop(prefetcher, segs, emit);
        DEMSORT_CHECK_EQ(merged, count);
      };
      int64_t t0 = NowNanos();
      uint64_t own_wait_ns = partition(t, offset, count, merge_into);
      metrics[t] = {merged, NowNanos() - t0,
                    prefetcher.io_wait_ns() + own_wait_ns,
                    prefetcher.demand_fetches()};
    });
    if (stats == nullptr) return;
    stats->merge_workers = std::max<uint64_t>(stats->merge_workers, workers());
    stats->merge_ways = std::max<uint64_t>(stats->merge_ways, num_runs_);
    for (const MergeWorkerMetrics& m : metrics) {
      stats->elements_merged += m.merged;
      stats->demand_fetches += m.demand_fetches;
      stats->merge_io_wait_ms += m.io_wait_ns * 1e-6;
      int64_t cpu_ns = m.wall_ns - static_cast<int64_t>(m.io_wait_ns);
      if (cpu_ns > 0) stats->merge_cpu_ms += cpu_ns * 1e-6;
    }
  }

 private:
  PeContext& ctx_;
  const SortConfig& config_;
  size_t num_runs_;
  MergePlan<R> plan_;
  std::vector<std::vector<std::vector<MergeSegment<R>>>> slices_;
};

}  // namespace internal

/// Merges this PE's extent chains, delivering every record in sorted order
/// to `sink(record)`. Consumes the extents (their blocks are freed as they
/// are read). Returns the number of records delivered. This is the engine
/// behind the pipelined variant of §VII (sink = downstream consumer).
///
/// The partitions merge concurrently but the sink still sees every record
/// in global key order: each worker buffers into a bounded staging vector
/// until the sequence gate makes it its turn, then streams directly (at
/// W = 1 it is always partition 0's turn). The sink may therefore be
/// called from changing worker threads (never concurrently; gate passes
/// establish happens-before).
template <typename R, typename Sink>
uint64_t MergeExtentsToSink(PeContext& ctx, const SortConfig& config,
                            std::vector<std::vector<Extent<R>>>
                                extents_per_run,
                            Sink&& sink, PhaseStats* stats = nullptr) {
  internal::PartitionedMerge<R> merge(ctx, config, extents_per_run);
  par::SequenceGate gate;
  const size_t pending_cap =
      std::max<size_t>(config.memory_per_pe / sizeof(R) / merge.workers(),
                       config.ElementsPerBlock<R>());
  merge.Run(stats, [&](size_t t, uint64_t, uint64_t, auto& merge_into) {
    std::vector<R> pending;
    bool direct = false;
    auto flush_pending = [&] {
      for (const R& rec : pending) sink(rec);
      pending.clear();
      pending.shrink_to_fit();
    };
    merge_into([&](const R* records, size_t n) {
      if (!direct && gate.IsTurn(t)) {
        flush_pending();
        direct = true;
      }
      if (direct) {
        for (size_t i = 0; i < n; ++i) sink(records[i]);
        return;
      }
      pending.insert(pending.end(), records, records + n);
      if (pending.size() >= pending_cap) {
        // Bounded staging: block for the turn, then stream. Deadlock-free
        // because ParallelFor hands tasks out in index order — every task
        // before t is running or done, so the gate holder always advances.
        gate.WaitTurn(t);
        flush_pending();
        direct = true;
      }
    });
    gate.WaitTurn(t);
    if (!direct) flush_pending();
    gate.Advance();
    return uint64_t{0};
  });
  return merge.total();
}

/// Merges this PE's extent chains into a locally striped sorted output.
/// Consumes the extents (their blocks are freed as they are read). Each
/// partition writes the full blocks of its grid-aligned body itself; the
/// stitching pass then writes the head/tail boundary spans in partition
/// order and adopts the body blocks in between, so the output manifest
/// (block order, first records, tail fill) is that of one sequential merge
/// at every worker count.
template <typename R>
MergeOutput<R> FinalMerge(PeContext& ctx, const SortConfig& config,
                          std::vector<std::vector<Extent<R>>> extents_per_run,
                          PhaseStats* stats = nullptr) {
  io::BlockManager* bm = ctx.bm;
  internal::PartitionedMerge<R> merge(ctx, config, extents_per_run);
  const size_t workers = merge.workers();
  std::vector<std::unique_ptr<internal::PartitionBlockWriter<R>>> parts(
      workers);
  const size_t write_window =
      std::max<size_t>(2, 2 * bm->num_disks() / workers);
  merge.Run(stats, [&](size_t t, uint64_t offset, uint64_t count,
                       auto& merge_into) {
    parts[t] = std::make_unique<internal::PartitionBlockWriter<R>>(
        bm, config.ElementsPerBlock<R>(), offset, count, write_window);
    internal::PartitionBlockWriter<R>& part = *parts[t];
    merge_into(
        [&part](const R* records, size_t n) { part.Append(records, n); });
    part.Finish();
    return part.io_wait_ns();
  });

  // Stitch: head span, adopted body blocks, tail span — in partition order
  // the concatenation is exactly the sequential merge's stream.
  io::StripedWriter<R> writer(bm);
  for (const auto& part : parts) {
    if (!part->head().empty()) {
      writer.AppendSpan(part->head().data(), part->head().size());
    }
    if (!part->blocks().empty()) {
      writer.AdoptFullBlocks(part->blocks().data(),
                             part->block_first_records().data(),
                             part->blocks().size());
    }
    if (!part->tail().empty()) {
      writer.AppendSpan(part->tail().data(), part->tail().size());
    }
  }
  writer.Finish();

  DEMSORT_CHECK_EQ(writer.total_appended(), merge.total());
  MergeOutput<R> out;
  out.blocks = writer.blocks();
  out.block_first_records = writer.block_first_records();
  out.num_elements = writer.total_appended();
  out.last_block_fill = writer.last_block_fill();
  return out;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_FINAL_MERGE_H_
