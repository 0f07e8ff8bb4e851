// Persistent on-disk cache of simulation results, content-addressed by
// fingerprint::content_key — one small text file per cell under the cache
// directory:
//
//   <dir>/<32-hex key>.result
//     hilab-result v2
//     meta.workload <display name>
//     meta.preset <preset name>
//     meta.orig_dyn_insts <count>
//     cycles 123456
//     ipc 2.3409...
//     ... (every visit_result_fields name, one per line)
//     checksum <16-hex FNV-1a-64 of everything above>
//
// Writes go through an advisory per-entry flock plus a per-process,
// per-thread temp file published by atomic rename, so parallel runners
// (threads or separate processes — hilab, hiserved workers) sharing a
// directory never observe a torn entry.  Loads validate three layers:
// the checksum footer (bit rot, torn writes), line shape, and
// required-field completeness (a line-aligned truncation must not decode
// as a silently-zeroed Result).  Any failure quarantines the file to
// `<name>.corrupt.<pid>.<n>` — unique per process and event, so
// concurrent quarantines never clobber each other's forensic evidence —
// and reports a miss, never an error: the cache is an accelerator, not a
// dependency.
// Entries with an older version header are plain misses (stale format,
// not corruption) and are left in place to be overwritten.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "machine/result.hpp"

namespace hidisc::lab {

struct CacheEntry {
  machine::Result result;
  std::string workload;  // display name, informational
  std::string preset;    // preset name, informational
  // Dynamic instruction count of the *original* (unseparated) binary;
  // exports use it to normalize IPC across binaries (Figure 10).
  std::uint64_t orig_dynamic_instructions = 0;
};

class ResultCache {
 public:
  // Creates `dir` (and parents) when missing; throws std::runtime_error
  // if that fails.
  explicit ResultCache(std::string dir);

  [[nodiscard]] std::optional<CacheEntry> load(const std::string& key) const;
  // Returns false (and leaves the cache unchanged) on I/O failure.
  bool store(const std::string& key, const CacheEntry& entry) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  [[nodiscard]] std::string path_for(const std::string& key) const;

  std::string dir_;
};

}  // namespace hidisc::lab
