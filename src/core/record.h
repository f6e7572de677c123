// Record types the sorter is instantiated for, and the traits binding them
// to the algorithms.
//
// A sortable record is a trivially copyable struct; RecordTraits<R> supplies
// its sort key, the comparator and a printable name. The sort order is
// defined once, on the key: `Key` is the compact, padding-free key type,
// `KeyOf` extracts it, `KeyLess` orders keys, and `Less` orders records by
// `KeyLess` of their keys. The splitter selections work on keys alone, so
// they ship and cache sizeof(Key) bytes per element, not sizeof(R). Two
// concrete types cover the paper's evaluation:
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
  using Key = uint64_t;
  static const Key& KeyOf(const KV16& r) { return r.key; }
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const { return a < b; }
  };
  struct Less {
    bool operator()(const KV16& a, const KV16& b) const {
      return KeyLess()(KeyOf(a), KeyOf(b));
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
  /// The 10 key bytes as they sit in the record.
  using Key = std::array<uint8_t, 10>;
  static const Key& KeyOf(const Gray100& r) { return r.key; }
  /// Lexicographic byte order of the 10-byte key, as memcmp would give it,
  /// compared as integers: the big-endian 8-byte prefix, then the 2-byte
  /// tail.
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      const uint64_t pa = Prefix(a), pb = Prefix(b);
      if (pa != pb) return pa < pb;
      return Tail(a) < Tail(b);
    }

   private:
    static uint64_t Prefix(const Key& k) {
      uint64_t v;
      std::memcpy(&v, k.data(), sizeof(v));
      if constexpr (std::endian::native == std::endian::little) {
        v = __builtin_bswap64(v);
      }
      return v;
    }
    static uint16_t Tail(const Key& k) {
      return static_cast<uint16_t>(k[8] << 8 | k[9]);
    }
  };
  struct Less {
    bool operator()(const Gray100& a, const Gray100& b) const {
      return KeyLess()(KeyOf(a), KeyOf(b));
    }
  };
  static Gray100 MaxSentinel() {
    Gray100 r;
    r.key.fill(0xFF);
    return r;
  }
  static constexpr const char* kName = "gray100";
};

// Keys travel on the wire and into checkpoint images: no padding bytes.
static_assert(std::has_unique_object_representations_v<
              RecordTraits<KV16>::Key>);
static_assert(std::has_unique_object_representations_v<
              RecordTraits<Gray100>::Key>);
static_assert(sizeof(RecordTraits<Gray100>::Key) == 10);

}  // namespace demsort::core

#endif  // DEMSORT_CORE_RECORD_H_
