#include "pipeline/trace_store.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
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

// Calls f(std::string_view) on each span of an entry file before its
// footer: header, probe, entry size, count, payload.
template <class F>
void for_each_span(const sim::Trace& trace, F&& f) {
  const auto span = [](const void* p, std::size_t n) {
    return std::string_view(static_cast<const char*>(p), n);
  };
  const std::uint32_t probe = kProbe;
  const std::uint32_t entry_size = sizeof(sim::TraceEntry);
  const std::uint64_t count = trace.size();
  f(span(kHeader, kHeaderLen));
  f(span(&probe, sizeof probe));
  f(span(&entry_size, sizeof entry_size));
  f(span(&count, sizeof count));
  f(span(trace.data(), count * sizeof(sim::TraceEntry)));
}

// The footer: FNV-1a-64 over every byte that precedes it, one call per
// span so the payload is hashed in a single pass.
std::uint64_t trace_checksum(const sim::Trace& trace) {
  std::uint64_t sum = lab::kFnv1a64Basis;
  for_each_span(trace,
                [&sum](std::string_view s) { sum = lab::fnv1a64(s, sum); });
  return sum;
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
  const auto corrupt = [&path] {
    diag::quarantine_file(path);
    return std::nullopt;
  };

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
      !in.read(reinterpret_cast<char*>(&count), sizeof count))
    return corrupt();
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
      file_size != fixed + count * sizeof(sim::TraceEntry))
    return corrupt();

  sim::Trace trace(count);
  std::uint64_t footer = 0;
  if ((count > 0 &&
       !in.read(reinterpret_cast<char*>(trace.data()),
                static_cast<std::streamsize>(count * sizeof(sim::TraceEntry)))) ||
      !in.read(reinterpret_cast<char*>(&footer), sizeof footer) ||
      trace_checksum(trace) != footer)
    return corrupt();
  return trace;
}

bool TraceStore::store(const std::string& key, const sim::Trace& trace) const {
  const std::uint64_t sum = trace_checksum(trace);
  return diag::publish_file(path_for(key), [&](std::ostream& out) {
    for_each_span(trace, [&out](std::string_view s) {
      out.write(s.data(), static_cast<std::streamsize>(s.size()));
    });
    out.write(reinterpret_cast<const char*>(&sum), sizeof sum);
  });
}

}  // namespace hidisc::pipeline
