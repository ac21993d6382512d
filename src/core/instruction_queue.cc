#include "core/instruction_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smt
{

InstructionQueue::InstructionQueue(unsigned entries, unsigned search_window)
    : entries_(entries), searchWindow_(search_window), slots_(entries),
      stamp_(entries, 0), parked_(entries, 0)
{
    // Slot numbers are 16 bits, 15 in a parked entry's wakeup handle.
    smt_assert(entries <= (1u << 15), "instruction queue of %u entries",
               entries);
    order_.reserve(entries);
    free_.reserve(entries);
    parkedList_.reserve(entries);
    parkedScratch_.reserve(entries);
    ageScratch_.reserve(entries);
    for (unsigned p = entries; p-- > 0;)
        free_.push_back(static_cast<std::uint16_t>(p));
}

void
InstructionQueue::remove(DynInst *inst)
{
    auto it = std::find_if(order_.begin(), order_.end(),
                           [&](std::uint16_t p) {
                               return slots_[p].inst == inst;
                           });
    if (it != order_.end()) {
        free_.push_back(*it);
        order_.erase(it);
        return;
    }
    auto pk = std::find_if(parkedList_.begin(), parkedList_.end(),
                           [&](const ParkedEntry &e) {
                               return slots_[e.slot].inst == inst;
                           });
    smt_assert(pk != parkedList_.end(), "instruction not in queue");
    const std::uint16_t p = pk->slot;
    dropParked(p);
    free_.push_back(p);
}

void
InstructionQueue::requeue(const DynInst *inst)
{
    // An issued entry is never parked, so it is in the walk.
    auto it = std::find_if(order_.begin(), order_.end(),
                           [&](std::uint16_t p) {
                               return slots_[p].inst == inst;
                           });
    smt_assert(it != order_.end(), "requeued instruction holds no slot");
    slots_[*it].release = kCycleNever;
}

void
InstructionQueue::rejoin(std::uint16_t p)
{
    dropParked(p);
    // Stamps increase along the walk: shift the younger entries up one
    // (order_ never outgrows its reserved capacity).
    const std::uint64_t stamp = stamp_[p];
    order_.push_back(p);
    std::uint16_t *order = order_.data();
    std::size_t i = order_.size() - 1;
    for (; i > 0 && stamp_[order[i - 1]] > stamp; --i)
        order[i] = order[i - 1];
    order[i] = p;
}

std::span<const std::uint16_t>
InstructionQueue::ageOrder() const
{
    if (parkedList_.empty())
        return order_;
    parkedScratch_.clear();
    for (const ParkedEntry &e : parkedList_)
        parkedScratch_.push_back(e.slot);
    auto by_stamp = [&](std::uint16_t a, std::uint16_t b) {
        return stamp_[a] < stamp_[b];
    };
    std::sort(parkedScratch_.begin(), parkedScratch_.end(), by_stamp);
    ageScratch_.resize(order_.size() + parkedScratch_.size());
    std::merge(order_.begin(), order_.end(), parkedScratch_.begin(),
               parkedScratch_.end(), ageScratch_.begin(), by_stamp);
    return ageScratch_;
}

void
InstructionQueue::oldestPositions(std::span<std::size_t> out) const
{
    const std::size_t n = size();
    for (std::size_t &pos : out)
        pos = n;
    const std::span<const std::uint16_t> order = ageOrder();
    for (std::size_t i = 0; i < order.size(); ++i) {
        const IqSlot &s = slots_[order[i]];
        if (s.tid >= out.size())
            continue;
        if (s.inQueue() && out[s.tid] == n)
            out[s.tid] = i;
    }
}

void
InstructionQueue::validateParked() const
{
    std::array<unsigned, kMaxThreads> per_thread{};
    for (const std::uint16_t p : order_)
        smt_assert(!parked_[p], "parked slot %u is still in the walk", p);
    for (std::size_t i = 0; i < parkedList_.size(); ++i) {
        const ParkedEntry &e = parkedList_[i];
        const IqSlot &s = slots_[e.slot];
        smt_assert(parked_[e.slot] && s.parkIdx == i,
                   "parked list entry %zu names slot %u, which is not "
                   "parked there", i, e.slot);
        smt_assert(s.inQueue(), "parked seq %llu is not waiting",
                   static_cast<unsigned long long>(s.seq));
        smt_assert(*s.parkedCell() == kCycleNever,
                   "parked seq %llu waits on a written cell",
                   static_cast<unsigned long long>(s.seq));
        smt_assert(e.tid == s.tid && e.memory == s.isMemory());
        ++per_thread[e.tid];
    }
    smt_assert(per_thread == parkedPerThread_,
               "per-thread parked counts disagree with a recount");
    for (std::size_t i = 1; i < order_.size(); ++i)
        smt_assert(stamp_[order_[i - 1]] < stamp_[order_[i]],
                   "walk out of age order at %zu", i);
}

} // namespace smt
