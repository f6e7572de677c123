// Shared-memory parallel multiway mergesort (the MCSTL role): sort chunks in
// parallel, then parallel-merge via exact selection. Used inside a PE to
// sort its share of a run.
#ifndef DEMSORT_PAR_PARALLEL_SORT_H_
#define DEMSORT_PAR_PARALLEL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "par/multiway_merge.h"
#include "par/thread_pool.h"

namespace demsort::par {

/// Sorts `data` by Less using the pool. STABLE: equal elements keep their
/// input order — the distributed algorithms build a deterministic
/// (key, PE, position) total order on top of this. Needs one extra buffer
/// of data.size() — the "factor around two" memory remark in the paper's
/// run-size footnote.
template <typename T, typename Less>
void ParallelSort(ThreadPool& pool, std::span<T> data, Less less = Less()) {
  const size_t n = data.size();
  const size_t parts = pool.num_threads();
  if (parts <= 1 || n < 8192) {
    std::stable_sort(data.begin(), data.end(), less);
    return;
  }

  // Ping-pong: each task copies its chunk into the scratch buffer and sorts
  // it there, then the merge lands directly in the caller's buffer — one
  // full-array pass fewer than sort-in-place + merge-to-scratch + copy-back.
  // The scratch is left uninitialized (a vector would zero it first: one
  // more pass over the array) and filled by the copies.
  static_assert(std::is_trivially_copyable_v<T> &&
                alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  const size_t chunk = (n + parts - 1) / parts;
  std::unique_ptr<std::byte[]> storage(new std::byte[n * sizeof(T)]);
  T* scratch = reinterpret_cast<T*>(storage.get());
  pool.ParallelFor(parts, [&](size_t t) {
    size_t lo = std::min(n, t * chunk);
    size_t hi = std::min(n, lo + chunk);
    if (lo >= hi) return;
    std::uninitialized_copy(data.begin() + lo, data.begin() + hi,
                            scratch + lo);
    std::stable_sort(scratch + lo, scratch + hi, less);
  });

  std::vector<std::span<const T>> sources;
  sources.reserve(parts);
  for (size_t t = 0; t < parts; ++t) {
    size_t lo = std::min(n, t * chunk);
    size_t hi = std::min(n, lo + chunk);
    if (lo < hi) {
      sources.push_back(std::span<const T>(scratch + lo, hi - lo));
    }
  }
  ParallelMultiwayMerge(pool, sources, data.data(), less);
}

}  // namespace demsort::par

#endif  // DEMSORT_PAR_PARALLEL_SORT_H_
