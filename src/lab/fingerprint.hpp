// Content hashing for the result cache (runner.hpp / result_cache.hpp).
//
// A cell's cache key is a 128-bit FNV-1a hash over (encoded program bytes,
// preset name, canonical MachineConfig description): any change to the
// simulated binary — workload data, compiler behaviour, CMAS annotations —
// or to the machine parameters yields a new key, so stale cache entries
// can never be returned.  The canonical descriptions are also useful on
// their own for debugging ("why did this cell miss the cache?").
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/program.hpp"
#include "machine/config.hpp"

namespace hidisc::lab {

// Canonical `key=value;` listing of every field that affects timing.
// Appends here whenever MachineConfig/CompileOptions grow a field — the
// lab_test fingerprint-sensitivity test guards the common cases.
[[nodiscard]] std::string describe(const machine::MachineConfig& cfg);
[[nodiscard]] std::string describe(const compiler::CompileOptions& opt);

// 32-hex digest of the concatenated `parts`, hashed by two fnv1a64
// (serialize.hpp) streams from different seeds — the shared 128-bit
// primitive for every content-addressed key (result cache entries,
// pipeline node keys).
[[nodiscard]] std::string key128(
    std::initializer_list<std::string_view> parts);

// The bytes of an encoded program image, for key128.
[[nodiscard]] inline std::string_view bytes_of(
    const std::vector<std::uint8_t>& image) {
  return {reinterpret_cast<const char*>(image.data()), image.size()};
}

// 32-hex-digit content key of one simulation: the exact binary fed to the
// machine (post-compilation, annotations included), the preset, and the
// machine configuration.
[[nodiscard]] std::string content_key(const isa::Program& binary,
                                      machine::Preset preset,
                                      const machine::MachineConfig& cfg);

// Same key computed from an already-encoded program image
// (isa::save_program bytes); the pipeline executor encodes each binary
// once and keys every downstream node off the same bytes.
[[nodiscard]] std::string content_key_image(
    const std::vector<std::uint8_t>& image, machine::Preset preset,
    const machine::MachineConfig& cfg);

}  // namespace hidisc::lab
