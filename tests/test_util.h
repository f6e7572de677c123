// Shared helpers for the pipeline tests: spin up a P-PE cluster where every
// PE owns a BlockManager and ThreadPool per the SortConfig, and hand the
// test body a ready PeContext.
#ifndef DEMSORT_TESTS_TEST_UTIL_H_
#define DEMSORT_TESTS_TEST_UTIL_H_

#include <cstring>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/pe_context.h"
#include "core/record.h"
#include "net/cluster.h"
#include "net/comm.h"

namespace demsort::test {

/// A small geometry that still produces several runs and several blocks per
/// piece: 64-byte... 1 KiB blocks of KV16 (64 elements), 8 KiB memory per PE
/// (512 elements/run-piece), two disks.
inline core::SortConfig SmallConfig() {
  core::SortConfig config;
  config.block_size = 1024;        // 64 KV16 per block
  config.memory_per_pe = 8 * 1024;  // 512 KV16 per PE per run
  config.disks_per_pe = 2;
  config.threads_per_pe = 1;
  config.seed = 424242;
  return config;
}

inline void RunPes(
    int num_pes, const core::SortConfig& config,
    const std::function<void(core::PeContext&, const core::SortConfig&)>&
        body) {
  net::Cluster::Run(num_pes, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    body(resources.ctx(), config);
  });
}

/// As RunPes, but with full fabric options (channel caps); returns the
/// cluster result so tests can assert on buffering high-water marks.
inline net::Cluster::Result RunPesWithOptions(
    const net::Cluster::Options& options, const core::SortConfig& config,
    const std::function<void(core::PeContext&, const core::SortConfig&)>&
        body) {
  return net::Cluster::Run(options, [&](net::Comm& comm) {
    core::PeResources resources(&comm, config);
    body(resources.ctx(), config);
  });
}

/// Comparator shorthand.
using KVLess = core::RecordTraits<core::KV16>::Less;

/// Gray100 key shapes that only a compare of all 10 key bytes orders
/// correctly.
enum class GrayKeys {
  /// One shared 8-byte prefix; keys differ only in byte 8 (one of 0x00,
  /// 0x7F, 0x80, 0xFF) or byte 9 (random), so many keys also repeat.
  kPrefixTies,
  /// Every key identical.
  kAllEqual,
};

/// n Gray100 records for PE `rank`; the payload starts with the record's
/// global index (rank * n + i).
inline std::vector<core::Gray100> MakeGray100(GrayKeys shape, uint64_t n,
                                              int rank, uint64_t seed) {
  static constexpr uint8_t kByte8[] = {0x00, 0x7F, 0x80, 0xFF};
  uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (rank + 1));
  std::vector<core::Gray100> out(n);
  for (uint64_t i = 0; i < n; ++i) {
    core::Gray100& rec = out[i];
    rec.key.fill(0x5A);
    if (shape == GrayKeys::kPrefixTies) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      rec.key[8] = kByte8[(state >> 33) % 4];
      rec.key[9] = static_cast<uint8_t>(state >> 41);
    }
    uint64_t gid = static_cast<uint64_t>(rank) * n + i;
    std::memcpy(rec.payload.data(), &gid, sizeof(gid));
  }
  return out;
}

/// The Gray100 order as memcmp of the 10 key bytes: the oracle the
/// integer key compare must agree with.
inline bool GrayMemcmpLess(const core::Gray100& a, const core::Gray100& b) {
  return std::memcmp(a.key.data(), b.key.data(), a.key.size()) < 0;
}

}  // namespace demsort::test

#endif  // DEMSORT_TESTS_TEST_UTIL_H_
