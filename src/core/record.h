// Record types the sorter is instantiated for, and the traits binding them
// to the algorithms.
//
// A sortable record is a trivially copyable struct; RecordTraits<R> supplies
// the comparator and a printable name. Two concrete types cover the paper's
// evaluation:
//  * KV16   — 16 bytes, 64-bit key (the scalability experiments, Figs 2-6;
//             "element size is (only) 16 bytes with 64-bit keys").
//  * Gray100 — 100 bytes, 10-byte key (the SortBenchmark categories).
#ifndef DEMSORT_CORE_RECORD_H_
#define DEMSORT_CORE_RECORD_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace demsort::core {

struct KV16 {
  uint64_t key = 0;
  /// Carries the element's original global index in the workloads; lets the
  /// validator prove permutation-ness and tests distinguish equal keys.
  uint64_t value = 0;
};
static_assert(sizeof(KV16) == 16);
static_assert(std::is_trivially_copyable_v<KV16>);

struct Gray100 {
  std::array<uint8_t, 10> key{};
  std::array<uint8_t, 90> payload{};
};
static_assert(sizeof(Gray100) == 100);
static_assert(std::is_trivially_copyable_v<Gray100>);

template <typename R>
struct RecordTraits;

template <>
struct RecordTraits<KV16> {
  struct Less {
    bool operator()(const KV16& a, const KV16& b) const {
      return a.key < b.key;
    }
  };
  /// A maximal record under Less (not necessarily strictly greater than
  /// every real record — the all-ones key is itself a valid key). The
  /// sentinel loser tree pairs it with an exhaustion-biased tie-break, so
  /// equality with real records is fine.
  static KV16 MaxSentinel() { return KV16{UINT64_MAX, UINT64_MAX}; }
  static constexpr const char* kName = "kv16";
};

template <>
struct RecordTraits<Gray100> {
  /// Lexicographic byte order of the 10-byte key, as memcmp would give it,
  /// compared as integers: the big-endian 8-byte prefix, then the 2-byte
  /// tail.
  struct Less {
    bool operator()(const Gray100& a, const Gray100& b) const {
      const uint64_t pa = Prefix(a), pb = Prefix(b);
      if (pa != pb) return pa < pb;
      return Tail(a) < Tail(b);
    }

   private:
    static uint64_t Prefix(const Gray100& r) {
      uint64_t v;
      std::memcpy(&v, r.key.data(), sizeof(v));
      if constexpr (std::endian::native == std::endian::little) {
        v = __builtin_bswap64(v);
      }
      return v;
    }
    static uint16_t Tail(const Gray100& r) {
      return static_cast<uint16_t>(r.key[8] << 8 | r.key[9]);
    }
  };
  static Gray100 MaxSentinel() {
    Gray100 r;
    r.key.fill(0xFF);
    return r;
  }
  static constexpr const char* kName = "gray100";
};

}  // namespace demsort::core

#endif  // DEMSORT_CORE_RECORD_H_
