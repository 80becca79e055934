// The repository's one checksum: 64-bit FNV-1a.
//
// Every integrity check and identity hash goes through here: store block
// and trailer checksums and header chains (src/store/), the seal of sealed
// files — checkpoints and the store manifest (util/bytes_file.h) — the svc
// spec hash (svc/job.h), and the golden edge and target fingerprints the
// equivalence suites pin. Multi-byte words are
// folded in little-endian byte order, so every value is stable across
// platforms and processes.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace pagen {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over `bytes`, continuing from `h` (chainable).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                            std::uint64_t h = kFnvOffset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

/// Fold one u64 into an FNV-1a chain, little-endian byte order.
[[nodiscard]] constexpr std::uint64_t fnv1a_u64(std::uint64_t word,
                                                std::uint64_t h = kFnvOffset) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over a sequence of u64 words (e.g. a targets row F_t).
[[nodiscard]] constexpr std::uint64_t fnv1a_words(
    std::span<const std::uint64_t> words, std::uint64_t h = kFnvOffset) {
  for (const std::uint64_t w : words) h = fnv1a_u64(w, h);
  return h;
}

/// Incremental FNV-1a over words and length-prefixed strings.
class Fnv1a {
 public:
  constexpr void word(std::uint64_t w) { h_ = fnv1a_u64(w, h_); }

  /// Length-prefixed so no two string sequences collide by concatenation.
  constexpr void str(std::string_view s) {
    word(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kFnvPrime;
    }
  }

  [[nodiscard]] constexpr std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

}  // namespace pagen
