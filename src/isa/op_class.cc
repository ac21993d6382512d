#include "isa/op_class.hh"

namespace smt
{

const char *
opClassName(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return "int";
      case OpClass::IntMult: return "imul";
      case OpClass::IntMultLong: return "imull";
      case OpClass::CondMove: return "cmov";
      case OpClass::Compare: return "cmp";
      case OpClass::FpAlu: return "fp";
      case OpClass::FpDiv: return "fdiv";
      case OpClass::FpDivLong: return "fdivl";
      case OpClass::Load: return "ld";
      case OpClass::Store: return "st";
      case OpClass::CondBranch: return "br";
      case OpClass::Jump: return "jmp";
      case OpClass::Call: return "call";
      case OpClass::Return: return "ret";
      case OpClass::IndirectJump: return "ijmp";
      case OpClass::NumOpClasses: break;
    }
    return "?";
}

} // namespace smt
