#include "pipeline/keys.hpp"

#include "lab/fingerprint.hpp"

namespace hidisc::pipeline {

namespace {

// Domain-separation prefixes: a compile key and a trace key that happen
// to hash the same bytes must still never collide across phases.
constexpr const char* kCompileTag = "pipeline.compile|";
constexpr const char* kTraceTag = "pipeline.trace|";

}  // namespace

std::string compile_key(const lab::WorkloadSpec& spec,
                        const compiler::CompileOptions& opt) {
  return lab::key128({kCompileTag, spec.id(), lab::describe(opt)});
}

std::string compile_key(const std::vector<std::uint8_t>& program_image,
                        const compiler::CompileOptions& opt) {
  return lab::key128(
      {kCompileTag, lab::bytes_of(program_image), lab::describe(opt)});
}

std::string trace_key(const std::vector<std::uint8_t>& binary_image,
                      std::uint64_t max_steps) {
  return lab::key128({kTraceTag, lab::bytes_of(binary_image),
                      "max_steps=" + std::to_string(max_steps) + ";"});
}

std::string sim_key(const std::vector<std::uint8_t>& binary_image,
                    machine::Preset preset,
                    const machine::MachineConfig& cfg) {
  // Deliberately NOT domain-tagged: sim keys are lab::content_key, the
  // address of on-disk .result entries written since PR 1.
  return lab::content_key_image(binary_image, preset, cfg);
}

}  // namespace hidisc::pipeline
