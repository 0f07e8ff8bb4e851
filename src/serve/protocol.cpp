#include "serve/protocol.hpp"

#include <cstring>

#include "lab/serialize.hpp"
#include "stats/json.hpp"

namespace hidisc::serve {

namespace {

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint16_t get_u16(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint16_t>(u[0] | (u[1] << 8));
}

std::uint32_t get_u32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(u[0]) |
         (static_cast<std::uint32_t>(u[1]) << 8) |
         (static_cast<std::uint32_t>(u[2]) << 16) |
         (static_cast<std::uint32_t>(u[3]) << 24);
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  for (int i = 7; i >= 0; --i) v = (v << 8) | u[i];
  return v;
}

std::string format_u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

const char* msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::Hello: return "Hello";
    case MsgType::HelloOk: return "HelloOk";
    case MsgType::SubmitPlan: return "SubmitPlan";
    case MsgType::PlanAccepted: return "PlanAccepted";
    case MsgType::CellDone: return "CellDone";
    case MsgType::PlanDone: return "PlanDone";
    case MsgType::GetStats: return "GetStats";
    case MsgType::Stats: return "Stats";
    case MsgType::Error: return "Error";
    case MsgType::Job: return "Job";
    case MsgType::JobDone: return "JobDone";
    case MsgType::Shutdown: return "Shutdown";
    case MsgType::Ping: return "Ping";
    case MsgType::Pong: return "Pong";
    case MsgType::ResumePlan: return "ResumePlan";
    case MsgType::ResumeOk: return "ResumeOk";
  }
  return "?";
}

std::string encode_frame(const Frame& f) {
  std::string out;
  out.reserve(kHeaderSize + f.payload.size());
  put_u32(out, kMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(f.type));
  put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  put_u64(out, lab::fnv1a64(f.payload));
  out += f.payload;
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t n) {
  if (!poison_.empty()) throw ProtocolError(poison_);
  buf_.append(static_cast<const char*>(data), n);
}

std::optional<Frame> FrameDecoder::next() {
  if (!poison_.empty()) throw ProtocolError(poison_);
  if (buf_.size() < kHeaderSize) return std::nullopt;
  const char* h = buf_.data();
  const auto fail = [&](const std::string& why) -> std::optional<Frame> {
    poison_ = "hiserve protocol: " + why;
    throw ProtocolError(poison_);
  };
  if (get_u32(h) != kMagic) return fail("bad magic");
  const std::uint16_t version = get_u16(h + 4);
  if (version != kProtocolVersion)
    return fail("unsupported protocol version " + std::to_string(version));
  const std::uint32_t len = get_u32(h + 8);
  if (len > kMaxPayload)
    return fail("oversize payload (" + std::to_string(len) + " bytes)");
  if (buf_.size() < kHeaderSize + len) return std::nullopt;
  const std::uint64_t want = get_u64(h + 12);
  Frame f;
  f.type = static_cast<MsgType>(get_u16(h + 6));
  f.payload = buf_.substr(kHeaderSize, len);
  if (lab::fnv1a64(f.payload) != want)
    return fail("payload checksum mismatch");
  buf_.erase(0, kHeaderSize + len);
  return f;
}

// Payload key-value helpers -------------------------------------------------

std::string kv_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

std::string kv_unescape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] == '\\' && i + 1 < v.size()) {
      ++i;
      out.push_back(v[i] == 'n' ? '\n' : v[i]);
    } else {
      out.push_back(v[i]);
    }
  }
  return out;
}

std::string kv_encode(const KvMap& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    out += k;
    out += ' ';
    out += kv_escape(v);
    out += '\n';
  }
  return out;
}

KvMap kv_parse(const std::string& payload) {
  KvMap kv;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    const std::string line = payload.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || space == 0)
      throw ProtocolError("hiserve protocol: malformed kv line '" + line +
                          "'");
    kv[line.substr(0, space)] = kv_unescape(line.substr(space + 1));
  }
  return kv;
}

std::string kv_get(const KvMap& kv, const std::string& key,
                   const std::string& fallback) {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

std::uint64_t kv_get_u64(const KvMap& kv, const std::string& key,
                         std::uint64_t fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  return std::strtoull(it->second.c_str(), nullptr, 10);
}

double kv_get_double(const KvMap& kv, const std::string& key,
                     double fallback) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

// Message payloads ----------------------------------------------------------

KvMap PlanRequest::to_kv() const {
  KvMap kv;
  kv["plan"] = plan;
  kv["scale"] = scale;
  kv["watchdog"] = format_u64(watchdog);
  kv["lockstep"] = lockstep ? "1" : "0";
  kv["refresh"] = refresh ? "1" : "0";
  return kv;
}

PlanRequest PlanRequest::from_kv(const KvMap& kv) {
  PlanRequest r;
  r.plan = kv_get(kv, "plan");
  r.scale = kv_get(kv, "scale", "paper");
  r.watchdog = kv_get_u64(kv, "watchdog");
  r.lockstep = kv_get(kv, "lockstep") == "1";
  r.refresh = kv_get(kv, "refresh") == "1";
  return r;
}

KvMap JobSpec::to_kv() const {
  KvMap kv = plan.to_kv();
  kv["job"] = format_u64(job_id);
  kv["cell"] = format_u64(cell);
  return kv;
}

JobSpec JobSpec::from_kv(const KvMap& kv) {
  JobSpec s;
  s.plan = PlanRequest::from_kv(kv);
  s.job_id = kv_get_u64(kv, "job");
  s.cell = kv_get_u64(kv, "cell");
  return s;
}

KvMap cell_result_to_kv(const lab::CellResult& r) {
  KvMap kv;
  kv["key"] = r.key;
  kv["odi"] = format_u64(r.orig_dynamic_instructions);
  kv["cached"] = r.from_cache ? "1" : "0";
  kv["wall_ms"] = stats::format_double(r.wall_ms);
  kv["scps"] = stats::format_double(r.sim_cycles_per_sec);
  kv["error"] = r.error;
  kv["error_class"] = r.error_class;
  kv["diagnostic"] = r.diagnostic_json;
  // Pipeline provenance (node work behind this cell's job); the daemon
  // zeroes these on dedup/memo deliveries.
  kv["n.compile"] = format_u64(r.compile_nodes_rebuilt);
  kv["n.trace_hit"] = format_u64(r.trace_nodes_hit);
  kv["n.trace"] = format_u64(r.trace_nodes_rebuilt);
  if (r.ok())
    for (const auto& [name, value] : lab::result_to_fields(r.result))
      kv["r." + name] = value;
  return kv;
}

lab::CellResult cell_result_from_kv(const KvMap& kv) {
  lab::CellResult r;
  r.key = kv_get(kv, "key");
  r.orig_dynamic_instructions = kv_get_u64(kv, "odi");
  r.from_cache = kv_get(kv, "cached") == "1";
  r.wall_ms = kv_get_double(kv, "wall_ms");
  r.sim_cycles_per_sec = kv_get_double(kv, "scps");
  r.error = kv_get(kv, "error");
  r.error_class = kv_get(kv, "error_class");
  r.diagnostic_json = kv_get(kv, "diagnostic");
  r.compile_nodes_rebuilt =
      static_cast<std::uint32_t>(kv_get_u64(kv, "n.compile"));
  r.trace_nodes_hit = static_cast<std::uint32_t>(kv_get_u64(kv, "n.trace_hit"));
  r.trace_nodes_rebuilt = static_cast<std::uint32_t>(kv_get_u64(kv, "n.trace"));
  if (r.ok()) {
    std::map<std::string, std::string> fields;
    for (const auto& [k, v] : kv)
      if (k.rfind("r.", 0) == 0) fields[k.substr(2)] = v;
    std::string missing;
    r.result = lab::result_from_fields(fields, &missing);
    if (!missing.empty())
      throw ProtocolError("hiserve protocol: cell result missing field '" +
                          missing + "'");
  }
  return r;
}

}  // namespace hidisc::serve
