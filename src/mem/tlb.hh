/**
 * @file
 * A fully-associative, LRU, software-filled TLB shared by all hardware
 * contexts (entries are ASN-tagged with the thread id). A TLB miss
 * requires two full memory accesses and no execution resources
 * (Section 2.1): it adds a fixed latency to the access and consumes
 * memory-port bandwidth, but never occupies a functional unit.
 *
 * Lookups are O(1): an open-addressed index maps (thread, page) to the
 * entry holding it, so a hit never scans the entries. Only a miss scans
 * them, to choose the LRU victim exactly as a fully-associative
 * lookup would.
 */

#ifndef SMT_MEM_TLB_HH
#define SMT_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace smt
{

/** Fully-associative, thread-tagged TLB. */
class Tlb
{
  public:
    Tlb(unsigned entries, unsigned page_bytes, TlbStats &stats);

    /**
     * Translate; fills the entry on a miss.
     * @return true on hit, false on miss (the caller adds the
     *         miss penalty to its access time).
     */
    bool translate(ThreadID tid, Addr vaddr);

    unsigned entries() const { return static_cast<unsigned>(tags_.size()); }

  private:
    struct Entry
    {
        bool valid = false;
        ThreadID tid = 0;
        Addr vpn = 0;
        std::uint64_t lru = 0;
    };

    /** Empty index cell. */
    static constexpr std::uint16_t kNoEntry = 0xffff;

    /** Home cell of (tid, vpn) in the index. */
    std::size_t
    home(ThreadID tid, Addr vpn) const
    {
        return mix64(vpn ^ (std::uint64_t{tid} << 56)) & indexMask_;
    }

    /** Index cell holding (tid, vpn)'s entry, or the empty cell where
     *  its probe sequence ends. */
    std::size_t findCell(ThreadID tid, Addr vpn) const;

    /** Drop the index cell `cell` (backward-shift deletion, so probe
     *  sequences stay unbroken without tombstones). */
    void eraseCell(std::size_t cell);

    unsigned pageShift_;
    std::uint64_t lruClock_ = 0;
    std::vector<Entry> tags_;
    /** Linear-probing index: entry number per cell, at most half full. */
    std::vector<std::uint16_t> index_;
    std::size_t indexMask_ = 0;
    TlbStats &stats_;
};

} // namespace smt

#endif // SMT_MEM_TLB_HH
