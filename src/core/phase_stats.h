// Per-phase, per-PE measurements: exactly what each phase did to the disks
// and the network, plus element-count work measures. These are the raw
// series behind every figure reproduction.
#ifndef DEMSORT_CORE_PHASE_STATS_H_
#define DEMSORT_CORE_PHASE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "io/block_manager.h"
#include "io/io_stats.h"
#include "net/comm.h"
#include "net/net_stats.h"
#include "util/timer.h"

namespace demsort::core {

/// The four phases of CANONICALMERGESORT as reported in Figs. 2-6 (the
/// striped algorithm and baselines reuse the enum where phases correspond).
enum class Phase : int {
  kRunFormation = 0,
  kMultiwaySelection = 1,
  kAllToAll = 2,
  kFinalMerge = 3,
  kNumPhases = 4,
};

const char* PhaseName(Phase phase);

struct PhaseStats {
  double wall_s = 0;
  io::IoStatsSnapshot io;       // summed over the PE's local disks
  double io_busy_max_disk_s = 0;  // max over local disks (parallel disks)
  net::NetStatsSnapshot net;
  /// Element-count work measures for the compute model.
  uint64_t elements_sorted = 0;  // n going through local sorts
  uint64_t elements_merged = 0;  // n going through k-way merges
  uint64_t merge_ways = 0;       // k of the dominant merge
  uint64_t selection_rounds = 0;
  /// Final-merge reads the prediction sequence failed to issue in time.
  uint64_t demand_fetches = 0;
  /// Final-merge parallelism: partitions actually merged concurrently
  /// (gauge), and where worker time went — the worker threads' CPU clock
  /// vs time stalled on block reads / output writes (summed over workers,
  /// so cpu+io_wait can exceed the phase wall when workers overlap; time a
  /// runnable worker waits for a core is in neither).
  uint64_t merge_workers = 0;
  double merge_cpu_ms = 0;
  double merge_io_wait_ms = 0;

  void Accumulate(const PhaseStats& other);
};

/// Collects counter snapshots around phases for one PE.
class PhaseCollector {
 public:
  PhaseCollector(net::Comm* comm, io::BlockManager* bm);

  void Begin(Phase phase);
  void End(Phase phase);

  PhaseStats& stats(Phase phase) {
    return stats_[static_cast<size_t>(phase)];
  }
  const PhaseStats& stats(Phase phase) const {
    return stats_[static_cast<size_t>(phase)];
  }

  /// Sum over all phases.
  PhaseStats Total() const;

 private:
  double MaxDiskBusyS() const;

  net::Comm* comm_;
  io::BlockManager* bm_;
  std::vector<PhaseStats> stats_;

  int64_t phase_start_ns_ = 0;
  io::IoStatsSnapshot io_at_begin_;
  double busy_at_begin_s_ = 0;
  net::NetStatsSnapshot net_at_begin_;
};

/// One PE's full report: phase stats plus identification.
struct SortReport {
  int rank = 0;
  int num_pes = 1;
  uint64_t local_input_elements = 0;
  uint64_t local_output_elements = 0;
  uint64_t num_runs = 0;
  uint64_t peak_blocks = 0;
  uint64_t input_blocks = 0;
  PhaseStats phase[static_cast<size_t>(Phase::kNumPhases)];

  const PhaseStats& Get(Phase p) const {
    return phase[static_cast<size_t>(p)];
  }
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_PHASE_STATS_H_
