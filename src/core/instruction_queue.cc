#include "core/instruction_queue.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace smt
{

InstructionQueue::InstructionQueue(unsigned entries, unsigned search_window)
    : entries_(entries), searchWindow_(search_window), slots_(entries)
{
    smt_assert(entries <= std::numeric_limits<std::uint16_t>::max(),
               "instruction queue of %u entries", entries);
    order_.reserve(entries);
    free_.reserve(entries);
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
    smt_assert(it != order_.end(), "instruction not in queue");
    free_.push_back(*it);
    order_.erase(it);
}

void
InstructionQueue::requeue(const DynInst *inst)
{
    auto it = std::find_if(order_.begin(), order_.end(),
                           [&](std::uint16_t p) {
                               return slots_[p].inst == inst;
                           });
    smt_assert(it != order_.end(), "requeued instruction holds no slot");
    slots_[*it].release = kCycleNever;
}

void
InstructionQueue::oldestPositions(std::span<std::size_t> out) const
{
    for (std::size_t &pos : out)
        pos = order_.size();
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const IqSlot &s = slots_[order_[i]];
        if (s.tid >= out.size())
            continue;
        if (s.inQueue() && out[s.tid] == order_.size())
            out[s.tid] = i;
    }
}

} // namespace smt
