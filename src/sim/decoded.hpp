// Pre-decoded threaded-code form of a HISA program.
//
// `decode_program` lowers each static `isa::Instruction` once into a flat
// 24-byte `DecodedOp`: an execution-kind byte that doubles as the dispatch
// index, raw operand register indices, the immediate (pre-shifted for LUI),
// the pre-resolved branch target, and the producer-side queue-push flags
// from the annotation.  The interpreter in interp.cpp then executes the
// table with computed-goto dispatch instead of re-inspecting the
// instruction encoding on every dynamic step (docs/FUNCTIONAL.md).  Each
// static instruction decodes to exactly one DecodedOp, so every dynamic
// instruction is one dispatch.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/program.hpp"

namespace hidisc::sim {

// X-macro over the HISA opcodes in isa::Opcode declaration order.  The
// interpreter builds its dispatch table from this list; the static_asserts
// below pin the order to the enum so a reordering is a compile error.
#define HIDISC_SIM_OPCODES(X)                                          \
  X(ADD) X(SUB) X(MUL) X(DIV) X(REM)                                   \
  X(AND) X(OR) X(XOR) X(NOR)                                           \
  X(SLL) X(SRL) X(SRA) X(SLT) X(SLTU)                                  \
  X(ADDI) X(ANDI) X(ORI) X(XORI)                                       \
  X(SLLI) X(SRLI) X(SRAI) X(SLTI) X(LUI)                               \
  X(FADD) X(FSUB) X(FMUL) X(FDIV) X(FSQRT)                             \
  X(FMIN) X(FMAX) X(FNEG) X(FABS) X(FMOV)                              \
  X(CVTIF) X(CVTFI) X(FEQ) X(FLT) X(FLE)                               \
  X(LB) X(LBU) X(LH) X(LHU) X(LW) X(LWU) X(LD) X(FLD)                  \
  X(SB) X(SH) X(SW) X(SD) X(FSD) X(PREF)                               \
  X(BEQ) X(BNE) X(BLT) X(BGE) X(BLTU) X(BGEU)                          \
  X(J) X(JAL) X(JR) X(JALR) X(HALT)                                    \
  X(PUSHLDQ) X(PUSHLDQF) X(POPLDQ) X(POPLDQF)                          \
  X(PUSHSDQ) X(PUSHSDQF) X(POPSDQ) X(POPSDQF)                          \
  X(PUTEOD) X(BEOD) X(GETSCQ) X(PUTSCQ) X(NOP)

enum ExecKind : std::uint8_t {
#define X(n) kExec##n,
  HIDISC_SIM_OPCODES(X)
#undef X
  kExecInvalid,  // == isa::Opcode::kCount: throwing handler
  kNumExecKinds,
};

#define X(n) \
  static_assert(kExec##n == static_cast<int>(isa::Opcode::n));
HIDISC_SIM_OPCODES(X)
#undef X
static_assert(kExecInvalid == static_cast<int>(isa::Opcode::kCount));

// Destination slot used when an instruction writes nothing architectural
// (r0 destination, store, branch, ...).  The interpreter's hot-loop register
// file has a 33rd scratch slot so handlers commit unconditionally.
inline constexpr std::uint8_t kSinkReg = 32;

// Producer-side queue pushes from isa::Annotation.
inline constexpr std::uint8_t kFlagPushLdq = 1;
inline constexpr std::uint8_t kFlagPushSdq = 2;
inline constexpr std::uint8_t kFlagPushAny = kFlagPushLdq | kFlagPushSdq;

struct DecodedOp {
  std::int64_t imm = 0;        // immediate; LUI stores imm << 16
  std::int32_t target = -1;    // pre-resolved branch/jump target
  std::uint8_t kind = kExecNOP;
  std::uint8_t dst = kSinkReg; // commit slot in the handler's register file
  std::uint8_t src1 = 0;       // raw register index (file chosen by handler)
  std::uint8_t src2 = 0;
  std::uint8_t flags = 0;      // kFlagPush*
  std::uint8_t pad_[3]{};
};
static_assert(sizeof(DecodedOp) == 24);

struct DecodedProgram {
  std::vector<DecodedOp> ops;  // 1:1 with Program::code
};

// Lowers `prog.code` into a DecodedOp table.
[[nodiscard]] DecodedProgram decode_program(const isa::Program& prog);

}  // namespace hidisc::sim
