// Cooperative distributed in-memory sorting of one run (§IV-B), following
// the multiway-merging scheme of [12]/[26]:
//   1. every PE sorts its local share (shared-memory parallel sort),
//   2. distributed exact multiway selection finds the P-1 splitters that cut
//      the P sorted sequences into exactly equal global ranks,
//   3. one Alltoallv moves every element to its final PE (the only time the
//      data crosses the network in the best case of the whole sort),
//   4. every PE merges the P sorted slices it received.
//
// The distributed selection is the in-memory analogue of §IV-A: sample
// bounds narrow every split position to a window of O(sample gap) elements
// per sequence, and par::MultiwaySelect finishes exactly on the windows'
// keys. Only keys cross the network for it, never records.
#ifndef DEMSORT_CORE_INTERNAL_SORT_H_
#define DEMSORT_CORE_INTERNAL_SORT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/pe_context.h"
#include "core/phase_stats.h"
#include "core/record.h"
#include "core/run_index.h"
#include "core/sample_bounds.h"
#include "net/transport.h"
#include "par/multiway_merge.h"
#include "par/multiway_select.h"
#include "par/parallel_sort.h"
#include "util/logging.h"

namespace demsort::core {

template <typename R>
struct InternalSortResult {
  /// This PE's globally contiguous share of the sorted run.
  std::vector<R> piece;
  /// Global rank (within the run) of piece[0].
  uint64_t piece_start = 0;
  /// Total run length across all PEs.
  uint64_t total = 0;
  uint64_t selection_rounds = 0;
};

namespace internal {

/// Global rank where PE t's share of `total` elements begins when P PEs
/// split them as evenly as possible (the first total % P PEs get one more).
inline uint64_t EvenSplitRank(uint64_t total, int P, int t) {
  return total / P * t + std::min<uint64_t>(total % P, t);
}

struct DistributedSelection {
  /// split[t][j] = how many elements of (sorted) sequence j precede global
  /// rank EvenSplitRank(total, P, t + 1), for t = 0..P-2.
  std::vector<std::vector<uint64_t>> split;
  /// Total length of all sequences.
  uint64_t total = 0;
  /// Window keys this PE sent to other PEs.
  uint64_t keys_sent = 0;
};

/// Splitter matrix for the even split of P sorted sequences, one per PE
/// (sequence j lives on PE j; `local` is this PE's). All PEs return
/// identical results.
///
/// Works on keys only (RecordTraits<R>::Key): samples and windows carry
/// sizeof(Key) bytes per element, never whole records. Constant number of
/// communication rounds (App. B applied in memory):
///   1. allgather a position-annotated key sample of every sequence; its
///      closing entry (position n_j - 1) also gives every sequence's
///      length, so no separate size exchange is needed,
///   2. every PE derives guaranteed bounds [lo_j, hi_j] for ITS target
///      locally (SampleBootstrapBounds), windows are O(sample gap) wide,
///   3. one alltoallv fetches the windows' keys from their owners,
///   4. exact multiway selection runs locally on the key windows (the
///      bounds guarantee the boundary element lies inside them),
///   5. rows are allgathered into the full matrix.
template <typename R>
DistributedSelection DistributedSelect(net::Comm& comm,
                                       std::span<const R> local,
                                       uint64_t* rounds_out,
                                       net::StreamOptions stream_options = {}) {
  using Traits = RecordTraits<R>;
  using Key = typename Traits::Key;
  using Entry = typename SampleTable<R>::Entry;
  const int P = comm.size();
  const int me = comm.rank();

  // 1. Sample every K-th element (K keeps the replicated sample ~8 entries
  // per (sequence, PE) pair).
  const uint64_t n_local = local.size();
  const uint64_t sample_k =
      std::max<uint64_t>(1, n_local / (8 * static_cast<uint64_t>(P)));
  std::vector<Entry> mine;
  for (uint64_t pos = 0; pos < n_local; pos += sample_k) {
    mine.push_back(Entry{Traits::KeyOf(local[pos]), pos});
  }
  // Closing sample: makes tail counts exact (important under heavy key
  // duplication, where the (key, seq) tie order then resolves whole
  // sequences at once) and carries the sequence length.
  if (n_local > 0 && (n_local - 1) % sample_k != 0) {
    mine.push_back(Entry{Traits::KeyOf(local[n_local - 1]), n_local - 1});
  }
  // Streamed replication: the transport never stages P sample payloads
  // (AllgatherVStreamed appends chunks as they land; align defaults to the
  // entry size so chunks never split an entry).
  stream_options.align_bytes = 1;
  std::vector<std::vector<Entry>> samples =
      comm.AllgatherVStreamed<Entry>(mine, stream_options);

  DistributedSelection result;
  std::vector<uint64_t> sizes(P, 0);
  for (int j = 0; j < P; ++j) {
    if (!samples[j].empty()) sizes[j] = samples[j].back().pos + 1;
    result.total += sizes[j];
  }
  DEMSORT_CHECK_EQ(sizes[me], n_local);
  const uint64_t target = EvenSplitRank(result.total, P, me);

  // 2. Bounds for MY target (PE 0 has none: its row is all zeros).
  std::vector<uint64_t> lo(P, 0), hi(P, 0);
  if (me > 0) {
    SampleBootstrapBounds<R>(samples, sizes, target, &lo, &hi);
  }

  // 3. Fetch the keys of windows [lo_j, hi_j) from their owners.
  struct WindowRequest {
    uint64_t begin;
    uint64_t end;
  };
  static_assert(std::has_unique_object_representations_v<WindowRequest>);
  std::vector<std::vector<WindowRequest>> requests(P);
  if (me > 0) {
    for (int j = 0; j < P; ++j) {
      requests[j].push_back(WindowRequest{lo[j], hi[j]});
    }
  }
  std::vector<std::vector<WindowRequest>> incoming =
      comm.Alltoallv<WindowRequest>(requests);
  std::vector<std::vector<Key>> responses(P);
  for (int t = 0; t < P; ++t) {
    for (const WindowRequest& req : incoming[t]) {
      DEMSORT_CHECK_LE(req.end, n_local);
      for (uint64_t pos = req.begin; pos < req.end; ++pos) {
        responses[t].push_back(Traits::KeyOf(local[pos]));
      }
    }
    if (t != me) result.keys_sent += responses[t].size();
  }
  std::vector<std::vector<Key>> windows = comm.Alltoallv<Key>(responses);

  // 4. Exact selection on the windows: positions relative to the window
  // starts; the bounds guarantee sum(lo) <= target <= sum(hi).
  std::vector<uint64_t> my_row(P, 0);
  if (me > 0) {
    uint64_t base = 0;
    for (int j = 0; j < P; ++j) base += lo[j];
    DEMSORT_CHECK_LE(base, target);
    std::vector<std::span<const Key>> spans(P);
    for (int j = 0; j < P; ++j) {
      DEMSORT_CHECK_EQ(windows[j].size(), hi[j] - lo[j]);
      spans[j] = std::span<const Key>(windows[j].data(), windows[j].size());
    }
    std::vector<size_t> in_window =
        par::MultiwaySelect<Key, typename Traits::KeyLess>(spans,
                                                           target - base);
    for (int j = 0; j < P; ++j) my_row[j] = lo[j] + in_window[j];
  }

  // 5. Assemble the full matrix (rows of ranks 1..P-1), streamed like the
  // sample gather.
  std::vector<std::vector<uint64_t>> rows =
      comm.AllgatherVStreamed<uint64_t>(my_row, stream_options);
  result.split.resize(P - 1);
  for (int t = 1; t < P; ++t) result.split[t - 1] = std::move(rows[t]);
  if (rounds_out != nullptr) *rounds_out += 3;
  return result;
}

}  // namespace internal

/// Sorts the union of all PEs' `local` vectors; afterwards PE i holds global
/// ranks [i*total/P, (i+1)*total/P), sorted (ties resolved by the
/// (key, source PE, position) total order, hence deterministically).
/// `stream_options` tunes the redistribution's and the selection gathers'
/// streaming (SortConfig::StreamOptionsFor), passed per call so per-run
/// overrides never mutate the shared Comm; alignment is set here from R.
template <typename R>
InternalSortResult<R> InternalParallelSort(
    PeContext& ctx, std::vector<R> local, PhaseStats* stats = nullptr,
    net::StreamOptions stream_options = {}) {
  using Less = typename RecordTraits<R>::Less;
  net::Comm& comm = *ctx.comm;
  const int P = comm.size();
  const int me = comm.rank();

  par::ParallelSort<R, Less>(*ctx.pool, std::span<R>(local));
  if (stats != nullptr) stats->elements_sorted += local.size();

  InternalSortResult<R> result;
  if (P == 1) {
    result.total = local.size();
    result.piece = std::move(local);
    result.piece_start = 0;
    return result;
  }

  uint64_t rounds = 0;
  internal::DistributedSelection selection = internal::DistributedSelect<R>(
      comm, std::span<const R>(local), &rounds, stream_options);
  const std::vector<std::vector<uint64_t>>& split = selection.split;
  const uint64_t total = selection.total;
  result.total = total;
  result.selection_rounds = rounds;
  if (stats != nullptr) stats->selection_rounds += rounds;

  // split rows for ranks r_1..r_{P-1}; add r_0 = 0 and r_P = sizes.
  // Streaming redistribution straight out of `local` (no per-destination
  // staging vectors: the provider hands AlltoallvStream zero-copy slice
  // spans, which it chunks onto the wire itself). Each source's slice is
  // appended to its receive vector chunk by chunk AS IT LANDS — the copy
  // out of the transport overlaps the rest of the transfer, and no full
  // per-source payload is ever staged in the mailbox. The size callback
  // pre-sizes each vector so the appends never reallocate.
  std::vector<std::vector<R>> received(P);
  net::StreamOptions redist_options = stream_options;
  redist_options.align_bytes = sizeof(R);
  comm.AlltoallvStream(
      [&](int t) -> std::span<const uint8_t> {
        uint64_t begin = t == 0 ? 0 : split[t - 1][me];
        uint64_t end = t == P - 1 ? local.size() : split[t][me];
        DEMSORT_CHECK_LE(begin, end);
        return std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(local.data() + begin),
            (end - begin) * sizeof(R));
      },
      [&](int src, std::span<const uint8_t> chunk, bool last) {
        (void)last;
        DEMSORT_CHECK_EQ(chunk.size() % sizeof(R), 0u);
        const R* records = reinterpret_cast<const R*>(chunk.data());
        received[src].insert(received[src].end(), records,
                             records + chunk.size() / sizeof(R));
      },
      [&](int src, uint64_t bytes) {
        DEMSORT_CHECK_EQ(bytes % sizeof(R), 0u);
        received[src].reserve(bytes / sizeof(R));
      },
      redist_options);

  size_t piece_size = 0;
  std::vector<std::span<const R>> sources;
  sources.reserve(P);
  for (int p = 0; p < P; ++p) {
    piece_size += received[p].size();
    sources.emplace_back(received[p].data(), received[p].size());
  }
  // The merge lands in `local`'s storage, whose records are all sent: a
  // resize keeps the first records as they are instead of zeroing a fresh
  // piece-sized vector.
  local.resize(piece_size);
  par::ParallelMultiwayMerge<R, Less>(*ctx.pool, sources, local.data());
  result.piece = std::move(local);
  if (stats != nullptr) {
    stats->elements_merged += piece_size;
    stats->merge_ways = std::max<uint64_t>(stats->merge_ways, P);
  }

  uint64_t r_me = internal::EvenSplitRank(total, P, me);
  uint64_t r_next = internal::EvenSplitRank(total, P, me + 1);
  DEMSORT_CHECK_EQ(piece_size, r_next - r_me);
  result.piece_start = r_me;
  return result;
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_INTERNAL_SORT_H_
