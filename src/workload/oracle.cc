#include "workload/oracle.hh"

#include "common/logging.hh"

namespace smt
{

namespace
{

/** A stuck pipeline would otherwise grow the ring without bound; this
 *  cap turns a liveness bug into a loud failure. */
constexpr std::size_t kMaxLiveEntries = 1u << 21;

} // namespace

ThreadProgram::ThreadProgram(const CodeImage &image, std::uint64_t seed)
    : image_(image), rng_(seed ^ mix64(0x4f5241434cull /* "ORACL" */)),
      pc_(image.entryPc()),
      loopTripsLeft_(image.numBranchBehaviors(), 0),
      memInstance_(image.numMemBehaviors(), 0)
{
}

OracleEntry
ThreadProgram::entryAt(std::uint64_t idx)
{
    smt_assert(idx >= base_, "stream index %llu already retired (base %llu)",
               static_cast<unsigned long long>(idx),
               static_cast<unsigned long long>(base_));
    while (headIndex() <= idx) {
        smt_assert(ring_.size() < kMaxLiveEntries,
                   "oracle ring overflow: pipeline liveness bug?");
        step();
    }
    return ring_[idx - base_];
}

void
ThreadProgram::retireBefore(std::uint64_t idx)
{
    while (base_ < idx && !ring_.empty()) {
        ring_.pop_front();
        ++base_;
    }
}

void
ThreadProgram::step()
{
    const StaticInst *si = image_.at(pc_);
    smt_assert(si != nullptr, "oracle walked out of the code image");

    OracleEntry e;
    e.pc = pc_;
    e.si = si;
    e.taken = false;
    e.nextPc = pc_ + kInstBytes;

    switch (si->op) {
      case OpClass::CondBranch: {
        const BranchBehavior &bb = image_.branchBehavior(si->annot);
        if (bb.kind == BranchBehavior::Kind::LoopBack) {
            std::uint64_t &left = loopTripsLeft_[si->annot];
            if (left == 0) // a new trip starts.
                left = rng_.range(bb.minTrip, bb.maxTrip);
            smt_assert(left >= 1);
            --left;
            e.taken = left > 0;
        } else {
            e.taken = rng_.chance(bb.takenProb);
        }
        if (e.taken)
            e.nextPc = si->target;
        break;
      }
      case OpClass::Jump:
        e.taken = true;
        e.nextPc = si->target;
        break;
      case OpClass::Call:
        e.taken = true;
        e.nextPc = si->target;
        callStack_.push_back(pc_ + kInstBytes);
        break;
      case OpClass::Return:
        e.taken = true;
        smt_assert(!callStack_.empty(), "return with empty call stack");
        e.nextPc = callStack_.back();
        callStack_.pop_back();
        break;
      case OpClass::IndirectJump: {
        e.taken = true;
        const IndirectBehavior &ib = image_.indirectBehavior(si->annot);
        smt_assert(!ib.targets.empty());
        // Skewed dispatch: real switch statements have a dominant arm,
        // which is what makes a last-target BTB prediction useful.
        if (ib.targets.size() == 1 || rng_.chance(0.9))
            e.nextPc = ib.targets[0];
        else
            e.nextPc =
                ib.targets[1 + rng_.below(ib.targets.size() - 1)];
        break;
      }
      case OpClass::Load:
      case OpClass::Store: {
        const std::uint64_t instance = memInstance_[si->annot]++;
        e.memAddr = image_.memAddrFor(*si, instance, rng_.next64());
        break;
      }
      default:
        break;
    }

    pc_ = e.nextPc;
    ring_.push_back(e);
}

} // namespace smt
