/**
 * @file
 * Tests for the ISA layer: the Table 1 latencies and the op-class and
 * StaticInst predicates the pipeline depends on.
 */

#include <gtest/gtest.h>

#include "isa/latency.hh"
#include "isa/op_class.hh"
#include "isa/static_inst.hh"

namespace smt
{
namespace
{

TEST(Latency, MatchesTable1)
{
    EXPECT_EQ(opLatency(OpClass::IntMult), 8u);
    EXPECT_EQ(opLatency(OpClass::IntMultLong), 16u);
    EXPECT_EQ(opLatency(OpClass::CondMove), 2u);
    EXPECT_EQ(opLatency(OpClass::Compare), 0u);
    EXPECT_EQ(opLatency(OpClass::IntAlu), 1u);
    EXPECT_EQ(opLatency(OpClass::FpDiv), 17u);
    EXPECT_EQ(opLatency(OpClass::FpDivLong), 30u);
    EXPECT_EQ(opLatency(OpClass::FpAlu), 4u);
    EXPECT_EQ(opLatency(OpClass::Load), 1u);
}

TEST(OpClass, ControlPredicates)
{
    EXPECT_TRUE(isControl(OpClass::CondBranch));
    EXPECT_TRUE(isControl(OpClass::Jump));
    EXPECT_TRUE(isControl(OpClass::Call));
    EXPECT_TRUE(isControl(OpClass::Return));
    EXPECT_TRUE(isControl(OpClass::IndirectJump));
    EXPECT_FALSE(isControl(OpClass::IntAlu));
    EXPECT_FALSE(isControl(OpClass::Load));
    EXPECT_FALSE(isControl(OpClass::Compare));
}

TEST(OpClass, IndirectControlNeedsPrediction)
{
    EXPECT_TRUE(isIndirectControl(OpClass::Return));
    EXPECT_TRUE(isIndirectControl(OpClass::IndirectJump));
    EXPECT_FALSE(isIndirectControl(OpClass::Jump));
    EXPECT_FALSE(isIndirectControl(OpClass::Call));
    EXPECT_FALSE(isIndirectControl(OpClass::CondBranch));
}

TEST(OpClass, MemoryAndFloatPredicates)
{
    EXPECT_TRUE(isMemory(OpClass::Load));
    EXPECT_TRUE(isMemory(OpClass::Store));
    EXPECT_FALSE(isMemory(OpClass::IntAlu));
    EXPECT_TRUE(isFloatOp(OpClass::FpAlu));
    EXPECT_TRUE(isFloatOp(OpClass::FpDiv));
    EXPECT_TRUE(isFloatOp(OpClass::FpDivLong));
    EXPECT_FALSE(isFloatOp(OpClass::Load)); // FP loads use the int queue.
    EXPECT_FALSE(isFloatOp(OpClass::IntMult));
}

TEST(OpClass, NamesAreDistinct)
{
    for (unsigned a = 0; a < kNumOpClasses; ++a) {
        for (unsigned b = a + 1; b < kNumOpClasses; ++b) {
            EXPECT_STRNE(opClassName(static_cast<OpClass>(a)),
                         opClassName(static_cast<OpClass>(b)));
        }
    }
}

TEST(StaticInst, QueueSteering)
{
    StaticInst ld;
    ld.op = OpClass::Load;
    ld.dest = LogReg::fpReg(4); // FP load...
    EXPECT_FALSE(ld.usesFpQueue()); // ...still goes to the integer queue.

    StaticInst fp;
    fp.op = OpClass::FpAlu;
    EXPECT_TRUE(fp.usesFpQueue());

    StaticInst br;
    br.op = OpClass::CondBranch;
    EXPECT_FALSE(br.usesFpQueue());
}

TEST(StaticInst, RegOperands)
{
    const LogReg none = LogReg::none();
    EXPECT_FALSE(none.valid());
    const LogReg r5 = LogReg::intReg(5);
    EXPECT_TRUE(r5.valid());
    EXPECT_EQ(r5.index, 5);
    EXPECT_EQ(r5.file, RegFile::Int);
    const LogReg f7 = LogReg::fpReg(7);
    EXPECT_EQ(f7.file, RegFile::Fp);
}

TEST(StaticInst, TargetPrediction)
{
    StaticInst ret;
    ret.op = OpClass::Return;
    EXPECT_TRUE(ret.needsTargetPrediction());
    StaticInst jmp;
    jmp.op = OpClass::Jump;
    EXPECT_FALSE(jmp.needsTargetPrediction());
}

} // namespace
} // namespace smt
