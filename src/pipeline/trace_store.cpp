#include "pipeline/trace_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>

#include "diag/quarantine.hpp"
#include "lab/serialize.hpp"

namespace fs = std::filesystem;

namespace hidisc::pipeline {

namespace {

constexpr char kHeader[] = "hilab-trace v1\n";
constexpr std::size_t kHeaderLen = sizeof kHeader - 1;
constexpr std::uint32_t kProbe = 0x01020304u;

static_assert(std::is_trivially_copyable_v<sim::TraceEntry>,
              "TraceEntry is persisted as raw bytes");

// The footer: FNV-1a-64 over every byte that precedes it (header, probe,
// entry size, count, payload), one call per span so the payload is hashed
// in a single pass.
std::uint64_t trace_checksum(const sim::Trace& trace) {
  const auto span = [](const void* p, std::size_t n) {
    return std::string_view(static_cast<const char*>(p), n);
  };
  const std::uint32_t probe = kProbe;
  const std::uint32_t entry_size = sizeof(sim::TraceEntry);
  const std::uint64_t count = trace.size();
  std::uint64_t sum = lab::fnv1a64(span(kHeader, kHeaderLen));
  sum = lab::fnv1a64(span(&probe, sizeof probe), sum);
  sum = lab::fnv1a64(span(&entry_size, sizeof entry_size), sum);
  sum = lab::fnv1a64(span(&count, sizeof count), sum);
  return lab::fnv1a64(span(trace.data(), count * sizeof(sim::TraceEntry)),
                      sum);
}

}  // namespace

TraceStore::TraceStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("hilab: cannot create trace store directory " +
                             dir_);
}

std::string TraceStore::path_for(const std::string& key) const {
  return (fs::path(dir_) / (key + ".trace")).string();
}

std::optional<sim::Trace> TraceStore::load(const std::string& key) const {
  const std::string path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  char header[kHeaderLen];
  if (!in.read(header, kHeaderLen) ||
      std::memcmp(header, kHeader, kHeaderLen) != 0)
    // Wrong header = stale or foreign format, not corruption: plain miss,
    // left in place to be overwritten by the next store.
    return std::nullopt;

  std::uint32_t probe = 0, entry_size = 0;
  std::uint64_t count = 0;
  if (!in.read(reinterpret_cast<char*>(&probe), sizeof probe) ||
      !in.read(reinterpret_cast<char*>(&entry_size), sizeof entry_size) ||
      !in.read(reinterpret_cast<char*>(&count), sizeof count)) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  // A foreign endianness or a recompiled TraceEntry size is a format
  // mismatch (miss), not corruption.
  if (probe != kProbe || entry_size != sizeof(sim::TraceEntry))
    return std::nullopt;

  // Guard the allocation against a corrupt count before trusting it; the
  // file itself bounds the honest size.
  std::error_code ec;
  const auto file_size = fs::file_size(path, ec);
  const std::uint64_t fixed =
      kHeaderLen + sizeof probe + sizeof entry_size + sizeof count +
      sizeof(std::uint64_t);
  if (ec || count > (1ull << 32) ||
      file_size != fixed + count * sizeof(sim::TraceEntry)) {
    diag::quarantine_file(path);
    return std::nullopt;
  }

  sim::Trace trace(count);
  if (count > 0 &&
      !in.read(reinterpret_cast<char*>(trace.data()),
               static_cast<std::streamsize>(count * sizeof(sim::TraceEntry)))) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  std::uint64_t footer = 0;
  if (!in.read(reinterpret_cast<char*>(&footer), sizeof footer)) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  if (trace_checksum(trace) != footer) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  return trace;
}

bool TraceStore::store(const std::string& key, const sim::Trace& trace) const {
  const std::uint32_t probe = kProbe;
  const std::uint32_t entry_size = sizeof(sim::TraceEntry);
  const std::uint64_t count = trace.size();
  const std::uint64_t sum = trace_checksum(trace);

  // Same publish protocol as the result cache: advisory per-entry flock,
  // per-process/per-thread temp file, atomic rename.  See
  // lab/result_cache.cpp for the full rationale.
  const std::string final_path = path_for(key);
  const int lock_fd = ::open((final_path + ".lock").c_str(),
                             O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);
  std::ostringstream tid;
  tid << std::this_thread::get_id();
  const std::string tmp =
      final_path + ".tmp." + std::to_string(::getpid()) + "." + tid.str();
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (out) {
      out.write(kHeader, static_cast<std::streamsize>(kHeaderLen));
      out.write(reinterpret_cast<const char*>(&probe), sizeof probe);
      out.write(reinterpret_cast<const char*>(&entry_size), sizeof entry_size);
      out.write(reinterpret_cast<const char*>(&count), sizeof count);
      if (count > 0)
        out.write(
            reinterpret_cast<const char*>(trace.data()),
            static_cast<std::streamsize>(count * sizeof(sim::TraceEntry)));
      out.write(reinterpret_cast<const char*>(&sum), sizeof sum);
      ok = static_cast<bool>(out.flush());
    }
  }
  if (ok) {
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    ok = !ec;
  }
  if (!ok) std::remove(tmp.c_str());
  if (lock_fd >= 0) {
    ::flock(lock_fd, LOCK_UN);
    ::close(lock_fd);
  }
  return ok;
}

}  // namespace hidisc::pipeline
