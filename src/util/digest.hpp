// FNV-1a based state digests.
//
// The detsim harness (sim/detsim.hpp) compares machine states across runs
// (serial vs parallel, pre- vs post-recovery) by 64-bit digest instead of
// deep structural comparison. Two combining modes:
//
//   * ordered  -- Fnv::mix folds words in sequence; use for positional
//     structures (arrays, ordered copy stacks) where layout is identity.
//   * unordered -- commutative_add sums per-element digests; use where the
//     structure is a set (e.g. the active tasks, whose storage order
//     depends on the order of departures), so any enumeration order
//     yields the same digest.
//
// Digests are NOT cryptographic; they are a cheap equivalence oracle. All
// arithmetic is on fixed-width integers, so values are stable across
// platforms and safe to pin in golden files.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace partree::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Folds one 64-bit word into an FNV-1a hash, byte by byte (order-dependent).
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t h,
                                                std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
  return h;
}

/// Order-dependent digest accumulator.
class Fnv {
 public:
  constexpr Fnv& mix(std::uint64_t word) noexcept {
    h_ = fnv1a_u64(h_, word);
    return *this;
  }
  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnvOffsetBasis;
};

/// Digest of one set element: a full FNV-1a pass over the given words, so
/// elements are well-mixed before the commutative combine.
[[nodiscard]] constexpr std::uint64_t element_digest(
    std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) noexcept {
  return fnv1a_u64(fnv1a_u64(fnv1a_u64(kFnvOffsetBasis, a), b), c);
}

/// Commutative combine: addition over Z/2^64, so folding element digests
/// in any enumeration order yields the same set digest.
[[nodiscard]] constexpr std::uint64_t commutative_add(
    std::uint64_t acc, std::uint64_t element) noexcept {
  return acc + element;
}

/// Fixed-width hex form ("0x" + 16 lowercase digits). Any digest or seed
/// that crosses a file boundary (repro files, golden pins) travels as this
/// string.
[[nodiscard]] inline std::string digest_hex(std::uint64_t digest) {
  char buf[16];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, digest, 16);
  std::string out = "0x";
  out.append(static_cast<std::size_t>(16 - (ptr - buf)), '0');
  out.append(buf, ptr);
  return out;
}

/// Inverse of digest_hex; also accepts shorter hex bodies. Throws
/// std::runtime_error on anything else.
[[nodiscard]] inline std::uint64_t parse_digest_hex(std::string_view text) {
  if (text.size() < 3 || text.substr(0, 2) != "0x" || text.size() > 18) {
    throw std::runtime_error("malformed digest hex: " + std::string(text));
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::runtime_error("malformed digest hex: " + std::string(text));
  }
  return value;
}

}  // namespace partree::util
