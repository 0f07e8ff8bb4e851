// FNV-1a 64-bit hash, header-only so every layer can share one copy: the
// functional simulator's state digests, the result cache's and trace
// store's checksum footers, the wire protocol's frame checksum, and both
// streams of every content key (lab/fingerprint.hpp's key128).
#pragma once

#include <cstdint>
#include <string_view>

namespace hidisc::util {

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

// Passing the previous call's return value as `state` continues the hash,
// so a chain of calls over consecutive spans equals one call over their
// concatenation.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view data, std::uint64_t state = kFnv1a64Basis) noexcept {
  for (const char c : data) {
    state ^= static_cast<unsigned char>(c);
    state *= kFnv1a64Prime;
  }
  return state;
}

}  // namespace hidisc::util
