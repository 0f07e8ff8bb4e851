// File primitives shared by the on-disk stores.  `publish_file` (result
// cache, trace store) makes an entry appear atomically.  Quarantine
// (result cache, trace store, hiserve job journal) moves a damaged file or
// file tail aside under a unique name instead of deleting it, so the
// specimen survives for triage while the store recovers.
//
// Uniqueness matters: with several processes sharing a directory, a
// fixed `<path>.corrupt` destination would let a second quarantine
// clobber the first one's evidence (or race its rename).  pid plus a
// process-local counter keeps every specimen.
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace hidisc::diag {

// Publishes `path` in a directory shared across processes: locks
// `<path>.lock`, has `write` fill a temp file unique per process and
// thread, then renames it into place.  The rename alone keeps readers from
// ever seeing a torn entry; the (best-effort) flock serializes writers of
// the same path so their write + rename windows do not interleave.
// Returns false, removing the temp file, when writing or renaming fails.
bool publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

// "<path>.corrupt.<pid>.<n>" with a fresh n per call.
[[nodiscard]] std::string quarantine_path_for(const std::string& path);

// Best-effort rename of `path` to a fresh quarantine name; returns the
// destination ("" when the rename failed).
std::string quarantine_file(const std::string& path);

}  // namespace hidisc::diag
