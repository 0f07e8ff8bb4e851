// Shared infrastructure for the ablation bench binaries.
//
// The paper's figures and tables render from their plans (`hilab --plan
// fig8` etc., src/lab/figures.hpp); the ablation binaries, which iterate
// over bespoke config axes, use the direct prepare()/run_preset() path
// below.
//
// That path sits on the artifact pipeline (src/pipeline/,
// docs/PIPELINE.md): prepare() submits compile and trace nodes to a
// process-lifetime pipeline session, so two ablation loops over the same
// workload share one compilation and one functional trace, and — when
// $HILAB_CACHE_DIR is set — traces persist on disk across bench runs.
// prepare() still traces only the binaries the requested presets consume:
// a plan that never runs CP+AP or HiDISC skips the separated-binary
// functional trace (and vice versa).
#pragma once

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "lab/figures.hpp"
#include "machine/machine.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/trace_store.hpp"
#include "sim/functional.hpp"
#include "stats/table.hpp"
#include "workloads/common.hpp"

namespace hidisc::bench {

struct PreparedWorkload {
  std::string name;
  // Immutable artifacts shared with the session memo (and with any other
  // PreparedWorkload for the same (program, options) pair).
  std::shared_ptr<const pipeline::CompileArtifact> compile;
  std::shared_ptr<const pipeline::TraceArtifact> orig;  // null unless needed
  std::shared_ptr<const pipeline::TraceArtifact> sep;   // null unless needed

  [[nodiscard]] const compiler::Compilation& comp() const {
    return compile->comp;
  }
};

// One pipeline session per bench process: compile and trace artifacts are
// memoized across every prepare() call.  With $HILAB_CACHE_DIR set the
// session also reads/writes the on-disk trace store shared with hilab.
inline pipeline::Pipeline& pipeline_session() {
  static pipeline::Pipeline::Stores stores = [] {
    pipeline::Pipeline::Stores s;
    if (const char* dir = std::getenv("HILAB_CACHE_DIR")) {
      static pipeline::TraceStore traces{dir};
      s.traces = &traces;
    }
    return s;
  }();
  static pipeline::Pipeline session{stores};
  return session;
}

// Compiles `w` and functionally traces exactly the binaries that
// `presets` will consume.  Throws on compile/trace failure (bench
// binaries have no per-cell error slots).
inline PreparedWorkload prepare(const workloads::BuiltWorkload& w,
                                const std::vector<machine::Preset>& presets,
                                const compiler::CompileOptions& opt = {}) {
  bool need_orig = false, need_sep = false;
  for (const auto preset : presets)
    (machine::uses_separated_binary(preset) ? need_sep : need_orig) = true;
  const auto p =
      pipeline_session().prepare(w.program, opt, need_orig, need_sep);
  return PreparedWorkload{w.name, p.compile, p.orig, p.sep};
}

inline PreparedWorkload prepare(const workloads::BuiltWorkload& w,
                                const compiler::CompileOptions& opt = {}) {
  return prepare(w, lab::all_presets(), opt);
}

inline machine::Result run_preset(const PreparedWorkload& p,
                                  machine::Preset preset,
                                  const machine::MachineConfig& cfg = {}) {
  const bool sep = machine::uses_separated_binary(preset);
  return machine::run_machine(
      sep ? p.comp().separated : p.comp().original,
      sep ? p.sep->trace : p.orig->trace, preset, cfg);
}

}  // namespace hidisc::bench
