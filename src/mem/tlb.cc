#include "mem/tlb.hh"

#include "common/logging.hh"

namespace smt
{

namespace
{

unsigned
log2Exact(std::uint64_t v)
{
    unsigned s = 0;
    while ((1ull << s) < v)
        ++s;
    smt_assert((1ull << s) == v, "value must be a power of two");
    return s;
}

} // namespace

Tlb::Tlb(unsigned entries, unsigned page_bytes, TlbStats &stats)
    : pageShift_(log2Exact(page_bytes)), tags_(entries), stats_(stats)
{
    smt_assert(entries > 0 && entries < kNoEntry,
               "TLB of %u entries", entries);
    std::size_t cells = 2;
    while (cells < 2 * std::size_t{entries})
        cells *= 2;
    index_.assign(cells, kNoEntry);
    indexMask_ = cells - 1;
}

std::size_t
Tlb::findCell(ThreadID tid, Addr vpn) const
{
    std::size_t cell = home(tid, vpn);
    while (index_[cell] != kNoEntry) {
        const Entry &e = tags_[index_[cell]];
        if (e.tid == tid && e.vpn == vpn)
            return cell;
        cell = (cell + 1) & indexMask_;
    }
    return cell;
}

void
Tlb::eraseCell(std::size_t cell)
{
    // Pull later members of the probe run back over the hole whenever
    // the hole lies on their path from home (cyclically in
    // (home, cell]); stop at the first empty cell.
    std::size_t hole = cell;
    for (std::size_t next = (cell + 1) & indexMask_;
         index_[next] != kNoEntry; next = (next + 1) & indexMask_) {
        const Entry &e = tags_[index_[next]];
        const std::size_t h = home(e.tid, e.vpn);
        if (((next - h) & indexMask_) >= ((next - hole) & indexMask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
    }
    index_[hole] = kNoEntry;
}

bool
Tlb::translate(ThreadID tid, Addr vaddr)
{
    ++stats_.accesses;
    const Addr vpn = vaddr >> pageShift_;

    const std::size_t cell = findCell(tid, vpn);
    if (index_[cell] != kNoEntry) {
        tags_[index_[cell]].lru = ++lruClock_;
        return true;
    }

    Entry *victim = &tags_[0];
    for (Entry &e : tags_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }

    ++stats_.misses;
    if (victim->valid)
        eraseCell(findCell(victim->tid, victim->vpn));
    victim->valid = true;
    victim->tid = tid;
    victim->vpn = vpn;
    victim->lru = ++lruClock_;
    // Re-probe: the erase may have shifted cells on the new key's path.
    index_[findCell(tid, vpn)] =
        static_cast<std::uint16_t>(victim - tags_.data());
    return false;
}

} // namespace smt
