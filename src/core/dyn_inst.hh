/**
 * @file
 * DynInst: one in-flight dynamic instruction.
 *
 * A DynInst is created at fetch and destroyed at commit or squash. It
 * carries the fetch-time prediction state (for repair), the oracle
 * outcome (for resolution), the renamed operands, and per-stage
 * timestamps. All pipeline containers hold raw pointers owned by the
 * core's InstPool.
 */

#ifndef SMT_CORE_DYN_INST_HH
#define SMT_CORE_DYN_INST_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/static_inst.hh"

namespace smt
{

/** Front-to-back progress of a DynInst. */
enum class InstStage : std::uint8_t
{
    Fetched,  ///< in the fetch/decode buffer.
    Decoded,  ///< past decode, awaiting rename.
    InQueue,  ///< renamed and resident in an instruction queue.
    Issued,   ///< selected for issue; in the regread/exec pipeline.
    Executed, ///< finished execute; awaiting in-order commit.
};

/** Sentinel stream index for wrong-path instructions. */
constexpr std::uint64_t kNoStreamIdx =
    std::numeric_limits<std::uint64_t>::max();

/** One dynamic instruction. */
struct DynInst
{
    // ---- Identity ------------------------------------------------------
    InstSeqNum seq = 0;
    ThreadID tid = 0;
    Addr pc = 0;
    const StaticInst *si = nullptr;
    std::uint64_t streamIdx = kNoStreamIdx; ///< oracle index; kNoStreamIdx
                                            ///< on the wrong path.
    bool wrongPath = false;

    // ---- Fetch-time prediction state -------------------------------------
    bool predTaken = false;
    Addr nextFetchPc = 0; ///< where fetch actually continued after this.
    std::uint64_t historySnapshot = 0;
    unsigned rasCheckpoint = 0;

    // ---- Oracle outcome (synthesised for wrong-path instructions) --------
    bool actualTaken = false;
    Addr actualNextPc = 0;
    Addr memAddr = 0;

    // ---- Rename ------------------------------------------------------------
    PhysRegIndex src1Phys = kNoPhysReg;
    PhysRegIndex src2Phys = kNoPhysReg;
    PhysRegIndex destPhys = kNoPhysReg;
    PhysRegIndex destPrevPhys = kNoPhysReg;

    // ---- Status ------------------------------------------------------------
    InstStage stage = InstStage::Fetched;
    Cycle fetchCycle = 0;
    Cycle decodeCycle = 0;
    Cycle renameCycle = 0;
    Cycle issueCycle = 0;
    Cycle completeCycle = kCycleNever; ///< commit-eligible from here.
    bool mispredicted = false;  ///< resolved against the prediction.
    bool optimistic = false;    ///< issued on an unverified load result.
    bool inIntQueue = false;    ///< which IQ holds/held it.
    /** Position in PipelineState::inFlight while issued. */
    std::uint32_t inFlightIdx = 0;

    bool isLoad() const { return si->isLoad(); }
    bool isStore() const { return si->isStore(); }
    bool isControl() const { return si->isControl(); }

    /** Reset for pool reuse. */
    void
    reset()
    {
        *this = DynInst{};
    }
};

} // namespace smt

#endif // SMT_CORE_DYN_INST_HH
