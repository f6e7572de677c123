// Pipelined sorting (§VII, future work): "run formation does not fetch the
// data but obtains it from some data generator ... and the output is not
// written to disk but fed into a postprocessor that requires its input in
// sorted order (e.g., variants of Kruskal's algorithm)".
//
// Differences from CANONICALMERGESORT:
//  * phase 1 pulls chunks from a per-PE producer callback instead of reading
//    input blocks — so no block randomization is possible (the paper notes
//    exactly this); runs are still written to disk (they must be, that is
//    the external-memory part);
//  * phase 3 streams each PE's sorted share into a consumer callback
//    instead of the striped writer, so the postprocessor can run
//    incrementally while blocks are still being fetched.
#ifndef DEMSORT_CORE_PIPELINED_H_
#define DEMSORT_CORE_PIPELINED_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/canonical_mergesort.h"
#include "core/config.h"
#include "core/external_alltoall.h"
#include "core/external_selection.h"
#include "core/final_merge.h"
#include "core/internal_sort.h"
#include "core/pe_context.h"
#include "core/run_index.h"
#include "core/sample_bounds.h"
#include "io/striped_writer.h"

namespace demsort::core {

template <typename R>
struct PipelinedResult {
  uint64_t consumed_elements = 0;  // delivered to this PE's consumer
  uint64_t global_begin = 0;
  uint64_t global_end = 0;
  uint64_t num_runs = 0;
};

/// Collective. `producer()` returns the next input chunk of at most
/// memory-per-PE elements (empty = exhausted; PEs may dry out at different
/// times). `consumer(rec)` receives this PE's share — globally, the
/// concatenation over PEs in rank order is the sorted input.
template <typename R>
PipelinedResult<R> PipelinedSort(
    PeContext& ctx, const SortConfig& config,
    const std::function<std::vector<R>()>& producer,
    const std::function<void(const R&)>& consumer) {
  DEMSORT_CHECK_OK(config.Validate());
  net::Comm& comm = *ctx.comm;
  io::BlockManager* bm = ctx.bm;
  const size_t epb = config.ElementsPerBlock<R>();
  const size_t m_elems = config.ElementsPerPeMemory<R>();
  const size_t sample_k =
      config.sample_every_k == 0 ? epb : config.sample_every_k;

  // ---- phase 1: producer-driven run formation (no randomization).
  RunFormationResult<R> rf;
  uint64_t my_total = 0;
  while (true) {
    std::vector<R> chunk = producer();
    DEMSORT_CHECK_LE(chunk.size(), m_elems)
        << "producer chunks must fit the per-PE memory budget";
    bool someone_has_data = !comm.AllreduceAnd(chunk.empty());
    if (!someone_has_data) break;
    my_total += chunk.size();

    InternalSortResult<R> sorted = InternalParallelSort<R>(
        ctx, std::move(chunk), nullptr, config.StreamOptionsFor(sizeof(R)));

    RunPiece<R> piece;
    piece.global_start = sorted.piece_start;
    piece.size = sorted.piece.size();
    size_t blocks_needed = (piece.size + epb - 1) / epb;
    piece.blocks = bm->AllocateMany(blocks_needed);
    piece.block_first_records =
        WriteBlocks<R>(bm, std::span<const R>(sorted.piece), piece.blocks);

    std::vector<typename SampleTable<R>::Entry> samples;
    for (size_t idx = 0; idx < sorted.piece.size(); idx += sample_k) {
      samples.push_back(typename SampleTable<R>::Entry{
          RecordTraits<R>::KeyOf(sorted.piece[idx]),
          piece.global_start + idx});
    }
    rf.runs.pieces.push_back(std::move(piece));
    rf.samples.per_run.push_back(std::move(samples));
  }
  rf.samples.sample_every_k = sample_k;
  rf.total_elements = comm.AllreduceSum<uint64_t>(my_total);

  const uint64_t num_runs = rf.runs.pieces.size();
  rf.table.piece_start.resize(num_runs);
  {
    std::vector<uint64_t> my_sizes(num_runs);
    for (uint64_t r = 0; r < num_runs; ++r) {
      my_sizes[r] = rf.runs.pieces[r].size;
    }
    auto all = comm.AllgatherV(my_sizes);
    for (uint64_t r = 0; r < num_runs; ++r) {
      auto& ps = rf.table.piece_start[r];
      ps.assign(comm.size() + 1, 0);
      for (int p = 0; p < comm.size(); ++p) ps[p + 1] = ps[p] + all[p][r];
    }
  }
  for (uint64_t r = 0; r < num_runs; ++r) {
    // Streamed sample replication (see sample_bounds.h): merges in PE ==
    // position order without staging P payloads.
    rf.samples.per_run[r] = AllgatherConcatStreamed(
        comm, rf.samples.per_run[r], config.StreamOptionsFor(1));
  }

  // ---- phases 2a/2b: exact selection + redistribution (unchanged).
  // A temporary: the selector's key cache and read buffers are freed before
  // the redistribution starts.
  SplitterMatrix split =
      ExternalSelector<R>(ctx, config, rf).SelectAllCollective(nullptr);
  AllToAllResult<R> redistributed =
      ExternalAllToAll<R>(ctx, config, rf, split);

  // ---- phase 3: merge straight into the consumer. With threads_per_pe > 1
  // the merge range-partitions across the PE's pool; the consumer still
  // sees every record in global key order (workers hand partitions over
  // through a sequence gate), but the calls may come from changing worker
  // threads — serialized, with happens-before between partitions, so
  // single-threaded consumer state is safe without its own locking.
  uint64_t consumed = MergeExtentsToSink<R>(
      ctx, config, std::move(redistributed.extents_per_run),
      [&consumer](const R& record) { consumer(record); });

  PipelinedResult<R> result;
  result.consumed_elements = consumed;
  result.global_begin = redistributed.my_begin_rank;
  result.global_end = redistributed.my_end_rank;
  result.num_runs = num_runs;
  return result;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_PIPELINED_H_
