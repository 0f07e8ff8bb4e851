#include "sim/decoded.hpp"

namespace hidisc::sim {

namespace {

using isa::Opcode;

// Register-commit class of each opcode, mirroring the reference
// interpreter's commit rule exactly: an int result only lands when the
// destination operand is an *int* register other than r0; an fp result only
// lands when the destination is an *fp* register (f0 is writable).
enum class Commit { None, Int, Fp };

Commit commit_class(Opcode op) {
  switch (op) {
    case Opcode::ADD: case Opcode::SUB: case Opcode::MUL: case Opcode::DIV:
    case Opcode::REM: case Opcode::AND: case Opcode::OR: case Opcode::XOR:
    case Opcode::NOR: case Opcode::SLL: case Opcode::SRL: case Opcode::SRA:
    case Opcode::SLT: case Opcode::SLTU: case Opcode::ADDI: case Opcode::ANDI:
    case Opcode::ORI: case Opcode::XORI: case Opcode::SLLI: case Opcode::SRLI:
    case Opcode::SRAI: case Opcode::SLTI: case Opcode::LUI:
    case Opcode::CVTFI: case Opcode::FEQ: case Opcode::FLT: case Opcode::FLE:
    case Opcode::LB: case Opcode::LBU: case Opcode::LH: case Opcode::LHU:
    case Opcode::LW: case Opcode::LWU: case Opcode::LD:
    case Opcode::JAL: case Opcode::JALR:
    case Opcode::POPLDQ: case Opcode::POPSDQ:
      return Commit::Int;
    case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL: case Opcode::FDIV:
    case Opcode::FSQRT: case Opcode::FMIN: case Opcode::FMAX: case Opcode::FNEG:
    case Opcode::FABS: case Opcode::FMOV: case Opcode::CVTIF: case Opcode::FLD:
    case Opcode::POPLDQF: case Opcode::POPSDQF:
      return Commit::Fp;
    default:
      return Commit::None;
  }
}

DecodedOp decode_one(const isa::Instruction& inst) {
  DecodedOp d;
  const auto raw = static_cast<std::uint16_t>(inst.op);
  if (raw < static_cast<std::uint16_t>(Opcode::kCount)) {
    d.kind = static_cast<std::uint8_t>(raw);
  } else if (inst.op == Opcode::kCount) {
    d.kind = kExecInvalid;
  } else {
    // Out-of-range opcode byte: the reference switch matches no case, which
    // executes exactly like a NOP (no result, annotation pushes honoured).
    d.kind = kExecNOP;
  }
  d.src1 = inst.src1.idx;
  d.src2 = inst.src2.idx;
  d.imm = inst.op == Opcode::LUI ? (inst.imm << 16) : inst.imm;
  d.target = inst.target;
  switch (commit_class(inst.op)) {
    case Commit::Int:
      d.dst = (inst.dst.is_int() && inst.dst.idx != 0) ? inst.dst.idx
                                                       : kSinkReg;
      break;
    case Commit::Fp:
      d.dst = inst.dst.is_fp() ? inst.dst.idx : kSinkReg;
      break;
    case Commit::None:
      d.dst = kSinkReg;
      break;
  }
  if (inst.ann.push_ldq) d.flags |= kFlagPushLdq;
  if (inst.ann.push_sdq) d.flags |= kFlagPushSdq;
  return d;
}

}  // namespace

DecodedProgram decode_program(const isa::Program& prog) {
  DecodedProgram out;
  out.ops.reserve(prog.code.size());
  for (const isa::Instruction& inst : prog.code)
    out.ops.push_back(decode_one(inst));
  return out;
}

}  // namespace hidisc::sim
