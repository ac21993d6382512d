/**
 * @file
 * ThreadProgram: the per-thread architectural oracle.
 *
 * The oracle interprets a CodeImage along the *correct* execution path
 * only, producing an append-only stream of OracleEntry records: the
 * actual direction/target of every control instruction and the effective
 * address of every memory access. The core's front end consumes stream
 * entries when it fetches on the correct path; after a squash it simply
 * rewinds its cursor (the stream itself is never regenerated, so the
 * architectural execution is independent of microarchitectural events).
 */

#ifndef SMT_WORKLOAD_ORACLE_HH
#define SMT_WORKLOAD_ORACLE_HH

#include <cstdint>
#include <vector>

#include "common/ring.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "isa/static_inst.hh"
#include "workload/code_image.hh"

namespace smt
{

/** One correct-path dynamic instruction. */
struct OracleEntry
{
    Addr pc = 0;
    const StaticInst *si = nullptr;
    bool taken = false;   ///< control outcome (true for all jumps/calls).
    Addr nextPc = 0;      ///< the correct next PC.
    Addr memAddr = 0;     ///< effective address for loads/stores.
};

/** The correct-path instruction stream of one thread. */
class ThreadProgram
{
  public:
    ThreadProgram(const CodeImage &image, std::uint64_t seed);

    /** The entry with the given absolute stream index (generates lazily).
     *  Indices start at 0 with the first instruction of main().
     *  Returned by value: the backing ring relocates when it grows, so
     *  references into it would not survive the next entryAt() call. */
    OracleEntry entryAt(std::uint64_t idx);

    /** Discard entries with index < idx (they can never be re-fetched:
     *  only call with the index following the last *committed* one). */
    void retireBefore(std::uint64_t idx);

    /** First still-buffered index. */
    std::uint64_t baseIndex() const { return base_; }

    /** One past the last generated index. */
    std::uint64_t
    headIndex() const
    {
        return base_ + ring_.size();
    }

    Addr entryPc() const { return image_.entryPc(); }
    const CodeImage &image() const { return image_; }

  private:
    void step();

    const CodeImage &image_;
    Rng rng_;

    Addr pc_;
    std::vector<Addr> callStack_;
    /** Iterations left in the current trip of each loop-back branch,
     *  by branch annot; 0 while no trip is under way. */
    std::vector<std::uint64_t> loopTripsLeft_;
    /** Correct-path accesses so far of each memory instruction, by
     *  memory annot. */
    std::vector<std::uint64_t> memInstance_;

    // Live entries [base_, base_ + ring_.size()); once the in-flight
    // window hits its high-water mark the oracle allocates nothing more.
    Ring<OracleEntry> ring_{1024};
    std::uint64_t base_ = 0;
};

} // namespace smt

#endif // SMT_WORKLOAD_ORACLE_HH
