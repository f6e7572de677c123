// Sample-derived exact bounds for multiway selection (App. B's idea in
// reusable form).
//
// Given, for each of k sorted sequences, a position-annotated sample (every
// K-th element with its exact in-sequence position), this computes per-
// sequence bounds [lo_j, hi_j] on the split positions of a target rank that
// are *guaranteed to contain the true positions*: every statement derives
// from exact sample positions, only the rank test is bracketed. Adjacent
// samples are <= K apart, so the windows end up O(K) wide — even under
// heavy key duplication, because the (key, sequence) tie order resolves
// cross-sequence comparisons at sample granularity.
//
// Both selection flavours build on this: the in-memory distributed sort of
// §IV-B fetches the windows once and finishes locally; the external
// selector of §IV-A refines them with cached block probes.
#ifndef DEMSORT_CORE_SAMPLE_BOUNDS_H_
#define DEMSORT_CORE_SAMPLE_BOUNDS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "core/run_index.h"
#include "net/comm.h"
#include "util/logging.h"

namespace demsort::core {

/// Replicates every PE's contribution as ONE concatenated vector in PE
/// order — the shape of the sample-table replication that feeds the
/// sample-bound machinery below (pieces are position-disjoint and PE order
/// is position order, so the concatenation IS the merged sample table).
///
/// Streamed: a cheap fixed-size allgather of the counts pins every
/// element's final position, then Comm::AllgatherVStream memcpys chunks
/// into place as they land. Unlike the buffered AllgatherV path, no P
/// per-source payload vectors exist at any point — receive-side memory is
/// O(credit x chunk x sources) plus the (mandatory) result itself, and in
/// the symmetric rounds the flow-control credits ride the data frames.
template <typename T>
std::vector<T> AllgatherConcatStreamed(net::Comm& comm,
                                       const std::vector<T>& mine,
                                       net::StreamOptions options = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int P = comm.size();
  std::vector<uint64_t> counts = comm.Allgather<uint64_t>(mine.size());
  std::vector<uint64_t> cursor(P, 0);
  uint64_t total = 0;
  for (int p = 0; p < P; ++p) {
    cursor[p] = total;
    total += counts[p];
  }
  std::vector<T> merged(total);
  if (options.align_bytes <= 1) options.align_bytes = sizeof(T);
  comm.AllgatherVStream(
      std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(mine.data()),
                               mine.size() * sizeof(T)),
      [&](int src, std::span<const uint8_t> chunk, bool) {
        DEMSORT_CHECK_EQ(chunk.size() % sizeof(T), 0u);
        if (chunk.empty()) return;
        std::memcpy(merged.data() + cursor[src], chunk.data(), chunk.size());
        cursor[src] += chunk.size() / sizeof(T);
      },
      nullptr, options);
  return merged;
}

/// True if element `rec` of sequence `i` precedes pivot (xrec, jx) in the
/// (key, sequence) total order (positions never compared across sequences).
template <typename R, typename Less>
bool PrecedesInTieOrder(const R& rec, size_t i, const R& xrec, size_t jx,
                        const Less& less) {
  if (less(rec, xrec)) return true;
  if (less(xrec, rec)) return false;
  return i < jx;
}

/// Bracket of "number of sequence-i elements preceding pivot (xrec, jx)"
/// derivable from sequence i's samples alone.
template <typename R, typename Less>
void SampleCountBounds(const std::vector<typename SampleTable<R>::Entry>&
                           samples,
                       uint64_t sequence_length, size_t i, const R& xrec,
                       size_t jx, const Less& less, uint64_t* c_lo,
                       uint64_t* c_hi) {
  size_t si = std::partition_point(
                  samples.begin(), samples.end(),
                  [&](const auto& s) {
                    return PrecedesInTieOrder<R, Less>(s.record, i, xrec, jx,
                                                       less);
                  }) -
              samples.begin();
  *c_lo = si == 0 ? 0 : samples[si - 1].pos + 1;
  *c_hi = si == samples.size() ? sequence_length : samples[si].pos;
}

/// Tightens [lo_j, hi_j] for the split positions of `target_rank` using only
/// the samples, iterating pivots drawn from the samples until fixpoint.
/// Postcondition: lo_j <= p_j <= hi_j for the exact positions p_j.
template <typename R, typename Less>
void SampleBootstrapBounds(
    const std::vector<std::vector<typename SampleTable<R>::Entry>>& samples,
    const std::vector<uint64_t>& lengths, uint64_t target_rank,
    const Less& less, std::vector<uint64_t>* lo, std::vector<uint64_t>* hi) {
  const size_t k = lengths.size();
  lo->assign(k, 0);
  hi->assign(k, 0);
  for (size_t j = 0; j < k; ++j) (*hi)[j] = lengths[j];

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t j = 0; j < k; ++j) {
      if ((*lo)[j] >= (*hi)[j]) continue;
      const auto& sj = samples[j];
      if (sj.empty()) continue;
      uint64_t mid = (*lo)[j] + ((*hi)[j] - (*lo)[j]) / 2;
      // Sample of sequence j nearest at-or-below mid.
      size_t si = std::partition_point(sj.begin(), sj.end(),
                                       [&](const auto& s) {
                                         return s.pos <= mid;
                                       }) -
                  sj.begin();
      if (si == 0) continue;
      const auto& pivot = sj[si - 1];
      uint64_t rank_lo = 0, rank_hi = 0;
      for (size_t i = 0; i < k; ++i) {
        if (i == j) {
          rank_lo += pivot.pos;
          rank_hi += pivot.pos;
          continue;
        }
        uint64_t c_lo, c_hi;
        SampleCountBounds<R, Less>(samples[i], lengths[i], i, pivot.record,
                                   j, less, &c_lo, &c_hi);
        rank_lo += c_lo;
        rank_hi += c_hi;
      }
      if (rank_lo == rank_hi && rank_lo == target_rank) {
        // The pivot IS the boundary element and every count is exact
        // (the brackets collapsed): fix all positions.
        for (size_t i = 0; i < k; ++i) {
          uint64_t c_lo, c_hi;
          if (i == j) {
            c_lo = c_hi = pivot.pos;
          } else {
            SampleCountBounds<R, Less>(samples[i], lengths[i], i,
                                       pivot.record, j, less, &c_lo, &c_hi);
            DEMSORT_CHECK_EQ(c_lo, c_hi);
          }
          (*lo)[i] = c_lo;
          (*hi)[i] = c_lo;
        }
        return;
      }
      if (rank_hi < target_rank) {
        for (size_t i = 0; i < k; ++i) {
          if (i == j) continue;
          uint64_t c_lo, c_hi;
          SampleCountBounds<R, Less>(samples[i], lengths[i], i, pivot.record,
                                     j, less, &c_lo, &c_hi);
          if (c_lo > (*lo)[i]) {
            (*lo)[i] = c_lo;
            changed = true;
          }
        }
        if (pivot.pos + 1 > (*lo)[j]) {
          (*lo)[j] = pivot.pos + 1;
          changed = true;
        }
      } else if (rank_lo > target_rank) {
        for (size_t i = 0; i < k; ++i) {
          if (i == j) continue;
          uint64_t c_lo, c_hi;
          SampleCountBounds<R, Less>(samples[i], lengths[i], i, pivot.record,
                                     j, less, &c_lo, &c_hi);
          if (c_hi < (*hi)[i]) {
            (*hi)[i] = c_hi;
            changed = true;
          }
        }
        if (pivot.pos < (*hi)[j]) {
          (*hi)[j] = pivot.pos;
          changed = true;
        }
      }
    }
  }
}

}  // namespace demsort::core

#endif  // DEMSORT_CORE_SAMPLE_BOUNDS_H_
