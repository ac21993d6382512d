/**
 * @file
 * Instruction operation classes for the Alpha-like ISA modelled by smtsim.
 *
 * The classes mirror the latency rows of Table 1 in the paper plus the
 * control-flow kinds the front end must distinguish (conditional branches,
 * direct jumps/calls, returns, indirect jumps).
 */

#ifndef SMT_ISA_OP_CLASS_HH
#define SMT_ISA_OP_CLASS_HH

#include <cstdint>

namespace smt
{

/** Operation class; determines latency, functional unit, and queue. */
enum class OpClass : std::uint8_t
{
    IntAlu,      ///< "all other integer": latency 1.
    IntMult,     ///< integer multiply: latency 8 (16 for the long form).
    IntMultLong, ///< 64-bit integer multiply: latency 16.
    CondMove,    ///< conditional move: latency 2.
    Compare,     ///< compare: latency 0 (consumable in the same cycle).
    FpAlu,       ///< "all other FP": latency 4.
    FpDiv,       ///< FP divide: latency 17 (30 for the long form).
    FpDivLong,   ///< double-precision divide: latency 30.
    Load,        ///< memory load: latency 1 on a D-cache hit.
    Store,       ///< memory store.
    CondBranch,  ///< conditional branch (direction predicted by the PHT).
    Jump,        ///< unconditional direct jump.
    Call,        ///< direct call (pushes the return stack).
    Return,      ///< subroutine return (predicted by the return stack).
    IndirectJump, ///< indirect jump (target predicted by the BTB).
    NumOpClasses
};

constexpr unsigned kNumOpClasses =
    static_cast<unsigned>(OpClass::NumOpClasses);

/** True for any instruction that can redirect control flow. */
inline bool
isControl(OpClass c)
{
    switch (c) {
      case OpClass::CondBranch:
      case OpClass::Jump:
      case OpClass::Call:
      case OpClass::Return:
      case OpClass::IndirectJump:
        return true;
      default:
        return false;
    }
}

/** True for conditional branches only. */
inline bool isCondBranch(OpClass c) { return c == OpClass::CondBranch; }

/** True for control transfers whose target must be predicted (BTB/RAS). */
inline bool
isIndirectControl(OpClass c)
{
    return c == OpClass::Return || c == OpClass::IndirectJump;
}

/** True for loads and stores. */
inline bool
isMemory(OpClass c)
{
    return c == OpClass::Load || c == OpClass::Store;
}

/** True when the op executes in the floating-point pipeline/queue. */
inline bool
isFloatOp(OpClass c)
{
    switch (c) {
      case OpClass::FpAlu:
      case OpClass::FpDiv:
      case OpClass::FpDivLong:
        return true;
      default:
        return false;
    }
}

/** Short mnemonic for tracing. */
const char *opClassName(OpClass c);

} // namespace smt

#endif // SMT_ISA_OP_CLASS_HH
