/**
 * @file
 * Execution latencies per operation class — Table 1 of the paper,
 * derived from the Alpha 21164.
 *
 * The latency is the number of cycles after issue before a dependent
 * instruction may issue (given the paper's predetermined-latency wakeup).
 * Loads use the D-cache model instead; the value here is the 1-cycle hit
 * assumption used for optimistic scheduling. Every functional unit is
 * completely pipelined (Section 2.1), so an op occupies its unit for
 * one cycle whatever its latency.
 */

#ifndef SMT_ISA_LATENCY_HH
#define SMT_ISA_LATENCY_HH

#include "common/logging.hh"
#include "isa/op_class.hh"

namespace smt
{

/** Result latency in cycles for an op class (Table 1). */
inline unsigned
opLatency(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return 1;
      case OpClass::IntMult: return 8;
      case OpClass::IntMultLong: return 16;
      case OpClass::CondMove: return 2;
      case OpClass::Compare: return 0;
      case OpClass::FpAlu: return 4;
      case OpClass::FpDiv: return 17;
      case OpClass::FpDivLong: return 30;
      case OpClass::Load: return 1;     // D-cache hit (Table 1).
      case OpClass::Store: return 1;
      case OpClass::CondBranch: return 1;
      case OpClass::Jump: return 1;
      case OpClass::Call: return 1;
      case OpClass::Return: return 1;
      case OpClass::IndirectJump: return 1;
      case OpClass::NumOpClasses: break;
    }
    smt_panic("bad op class %u", static_cast<unsigned>(c));
}

} // namespace smt

#endif // SMT_ISA_LATENCY_HH
