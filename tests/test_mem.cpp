/**
 * @file
 * Tests for the memory subsystem: banked cache behaviour (hits, misses,
 * LRU, bank/port conflicts, MSHR merging, writebacks), the TLBs, and
 * the assembled hierarchy's latency ordering and MISSCOUNT feedback.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "config/config.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "stats/stats.hh"

namespace smt
{
namespace
{

CacheParams
smallCache(const char *name, unsigned size_kb, unsigned assoc,
           unsigned banks)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = size_kb * 1024ull;
    p.assoc = assoc;
    p.lineBytes = 64;
    p.banks = banks;
    p.accessesPerCycle = 4;
    p.cyclesPerAccess = 1;
    p.transferCycles = 1;
    p.fillCycles = 2;
    p.latencyToNext = 6;
    return p;
}

TEST(Cache, MissThenHit)
{
    CacheStats stats;
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    const auto miss = c.access(0x1000, 100, false);
    EXPECT_FALSE(miss.hit);
    EXPECT_GT(miss.ready, 100u);

    const auto hit = c.access(0x1000, miss.ready + 10, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.ready, miss.ready + 10);
    EXPECT_EQ(stats.accesses, 2u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(Cache, MissLatencyIncludesMemoryPath)
{
    CacheStats stats;
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    const auto miss = c.access(0x1000, 100, false);
    // latencyToNext (6) + memory (60) + transfer (1) = 67.
    EXPECT_EQ(miss.ready, 100u + 6 + 60 + 1);
}

TEST(Cache, SameLineDifferentWordsHit)
{
    CacheStats stats;
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    const auto miss = c.access(0x1000, 100, false);
    // +3: clear of the 2-cycle fill occupying the bank at miss.ready.
    const auto hit = c.access(0x1030, miss.ready + 3, false); // same line.
    EXPECT_TRUE(hit.hit);
}

TEST(Cache, MshrMergesOutstandingMisses)
{
    CacheStats stats;
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    const auto first = c.access(0x1000, 100, false);
    const auto merged = c.access(0x1008, 101, false); // same line, in flight.
    EXPECT_FALSE(merged.hit);
    EXPECT_EQ(merged.ready, first.ready); // rides the same fill.
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.mshrMerges, 1u);
}

TEST(Cache, DirectMappedConflictEvicts)
{
    CacheStats stats;
    // 32KB direct-mapped, 8 banks, 64B lines: the same (bank, set) is
    // re-used every 32KB of address space.
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    const auto a = c.access(0x0000, 100, false);
    (void)c.access(0x8000, a.ready + 10, false); // evicts the first line.
    const auto back = c.access(0x0000, a.ready + 200, false);
    EXPECT_FALSE(back.hit);
    EXPECT_EQ(stats.misses, 3u);
}

TEST(Cache, AssociativityAvoidsConflict)
{
    CacheStats stats;
    BankedCache c(smallCache("L2", 32, 4, 8), nullptr, 60, 4, true, false,
                  stats);
    Cycle t = 100;
    // Four lines in the same set of a 4-way cache: all must survive.
    for (unsigned i = 0; i < 4; ++i) {
        const auto r = c.access(0x0000 + i * 8 * 1024, t, false);
        t = r.ready + 2;
    }
    for (unsigned i = 0; i < 4; ++i) {
        const auto r = c.access(0x0000 + i * 8 * 1024, t, false);
        EXPECT_TRUE(r.hit) << "way " << i;
        ++t;
    }
}

TEST(Cache, LruVictimSelection)
{
    CacheStats stats;
    BankedCache c(smallCache("L2", 32, 2, 1), nullptr, 60, 4, true, false,
                  stats);
    // Two-way set; touch A, B, then A again; C must evict B.
    Cycle t = 100;
    t = c.access(0x0000, t, false).ready + 2; // A.
    t = c.access(0x4000, t, false).ready + 2; // B (same set: 16KB apart).
    t = c.access(0x0000, t, false).ready + 2; // A again (refresh LRU).
    t = c.access(0x8000, t, false).ready + 2; // C evicts B.
    EXPECT_TRUE(c.access(0x0000, t, false).hit);
    EXPECT_FALSE(c.access(0x4000, t + 1, false).hit);
}

TEST(Cache, BankConflictRejectedWhenCoreFacing)
{
    CacheStats stats;
    CacheParams p = smallCache("L1", 32, 1, 8);
    p.accessesPerCycle = 4;
    BankedCache c(p, nullptr, 60, 4, true, false, stats);
    // Warm two lines in the same bank (64B lines, 8 banks: same bank
    // every 512 bytes).
    Cycle t = 100;
    t = c.access(0x0000, t, false).ready + 2;
    t = c.access(0x0200, t, false).ready + 2;
    // Two same-cycle accesses to the same bank: second must be rejected.
    const auto first = c.access(0x0000, t, false);
    EXPECT_TRUE(first.hit);
    const auto second = c.access(0x0200, t, false);
    EXPECT_TRUE(second.conflict);
    EXPECT_EQ(stats.bankConflicts, 1u);
}

TEST(Cache, PortLimitRejectsExcessAccesses)
{
    CacheStats stats;
    CacheParams p = smallCache("L1", 32, 1, 8);
    p.accessesPerCycle = 2;
    BankedCache c(p, nullptr, 60, 4, true, false, stats);
    Cycle t = 100;
    // Warm three lines in three different banks.
    for (unsigned i = 0; i < 3; ++i)
        t = c.access(i * 64, t, false).ready + 2;
    // Same cycle: two fine, third rejected by the port limit.
    EXPECT_TRUE(c.access(0 * 64, t, false).hit);
    EXPECT_TRUE(c.access(1 * 64, t, false).hit);
    EXPECT_TRUE(c.access(2 * 64, t, false).conflict);
}

TEST(Cache, InfiniteBandwidthNeverConflicts)
{
    CacheStats stats;
    CacheParams p = smallCache("L1", 32, 1, 8);
    p.accessesPerCycle = 1;
    BankedCache c(p, nullptr, 60, 4, true, true, stats);
    Cycle t = 100;
    for (unsigned i = 0; i < 4; ++i)
        t = c.access(i * 0x200, t, false).ready + 2;
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * 0x200, t, false).conflict);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    CacheStats stats;
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    Cycle t = 100;
    t = c.access(0x0000, t, true).ready + 2; // dirty the line.
    t = c.access(0x8000, t, false).ready + 2; // evict it.
    EXPECT_EQ(stats.writebacks, 1u);
}

TEST(Cache, TagProbeDoesNotDisturbState)
{
    CacheStats stats;
    BankedCache c(smallCache("L1", 32, 1, 8), nullptr, 60, 4, true, false,
                  stats);
    EXPECT_FALSE(c.wouldHit(0x1000));
    const auto miss = c.access(0x1000, 100, false);
    EXPECT_FALSE(c.wouldHit(0x1000)); // still outstanding in the MSHR.
    (void)c.access(0x1000, miss.ready + 3, false); // clears the MSHR entry.
    EXPECT_TRUE(c.wouldHit(0x1000));
    EXPECT_EQ(stats.accesses, 2u); // probes don't count.
}

TEST(Tlb, HitAfterFill)
{
    TlbStats stats;
    Tlb tlb(64, 8192, stats);
    EXPECT_FALSE(tlb.translate(0, 0x10000)); // cold miss (and fill).
    EXPECT_TRUE(tlb.translate(0, 0x10000));
    EXPECT_TRUE(tlb.translate(0, 0x10000 + 4096)); // same 8K page.
    EXPECT_FALSE(tlb.translate(0, 0x20000)); // different page.
    EXPECT_EQ(stats.accesses, 4u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(Tlb, EntriesAreThreadTagged)
{
    TlbStats stats;
    Tlb tlb(64, 8192, stats);
    (void)tlb.translate(0, 0x10000);
    EXPECT_FALSE(tlb.translate(1, 0x10000)); // other thread misses.
}

TEST(Tlb, LruCapacityEviction)
{
    TlbStats stats;
    Tlb tlb(4, 8192, stats);
    for (Addr p = 0; p < 5; ++p)
        (void)tlb.translate(0, p * 8192);
    EXPECT_FALSE(tlb.translate(0, 0)); // evicted.
    EXPECT_TRUE(tlb.translate(0, 4 * 8192)); // recent survives.
}

/**
 * Reference model: the fully-associative TLB as a linear scan over its
 * entries on every lookup (hit search and LRU victim alike). The
 * indexed Tlb must give the same hit/miss answer for every access.
 */
class LinearTlb
{
  public:
    LinearTlb(unsigned entries, unsigned page_shift)
        : pageShift_(page_shift), tags_(entries)
    {
    }

    bool
    translate(ThreadID tid, Addr vaddr)
    {
        const Addr vpn = vaddr >> pageShift_;
        for (Entry &e : tags_) {
            if (e.valid && e.tid == tid && e.vpn == vpn) {
                e.lru = ++lruClock_;
                return true;
            }
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
        *victim = {true, tid, vpn, ++lruClock_};
        return false;
    }

  private:
    struct Entry
    {
        bool valid = false;
        ThreadID tid = 0;
        Addr vpn = 0;
        std::uint64_t lru = 0;
    };

    unsigned pageShift_;
    std::uint64_t lruClock_ = 0;
    std::vector<Entry> tags_;
};

TEST(Tlb, MatchesLinearReferenceOnRandomStreams)
{
    // Working sets from well inside to well beyond capacity, with a hot
    // subset, several threads sharing page numbers, and sizes whose
    // index wraps: every hit, miss, eviction and index deletion path.
    Rng rng(42);
    for (unsigned entries : {1u, 4u, 7u, 64u}) {
        for (unsigned pages : {entries, 2 * entries + 3, 8 * entries}) {
            TlbStats stats;
            Tlb tlb(entries, 8192, stats);
            LinearTlb ref(entries, 13);
            std::uint64_t misses = 0;
            for (unsigned i = 0; i < 20000; ++i) {
                const ThreadID tid = static_cast<ThreadID>(rng.below(4));
                const Addr page = rng.chance(0.7) ? rng.below(pages / 2 + 1)
                                                  : rng.below(pages);
                const Addr vaddr = page * 8192 + rng.below(8192);
                const bool hit = ref.translate(tid, vaddr);
                ASSERT_EQ(tlb.translate(tid, vaddr), hit)
                    << "entries " << entries << " pages " << pages
                    << " access " << i;
                misses += hit ? 0 : 1;
            }
            EXPECT_EQ(stats.accesses, 20000u);
            EXPECT_EQ(stats.misses, misses);
            EXPECT_GT(misses, 0u);
            EXPECT_LT(misses, 20000u);
        }
    }
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest() : mem_(cfg_, stats_) {}

    SmtConfig cfg_;
    SimStats stats_;
    MemoryHierarchy mem_{cfg_, stats_};
};

TEST_F(HierarchyTest, ColdFetchMissesThroughAllLevels)
{
    const auto r = mem_.fetchAccess(0, 0x10000000, 1000);
    EXPECT_FALSE(r.l1Hit);
    // Must traverse L2 and L3 to memory: at least 6+12+62 cycles.
    EXPECT_GE(r.ready, 1000u + 80);
    EXPECT_EQ(stats_.icache.misses, 1u);
    EXPECT_EQ(stats_.l2.misses, 1u);
    EXPECT_EQ(stats_.l3.misses, 1u);
}

TEST_F(HierarchyTest, WarmFetchHitsAtL1)
{
    const auto miss = mem_.fetchAccess(0, 0x10000000, 1000);
    const auto hit = mem_.fetchAccess(0, 0x10000000, miss.ready + 1);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.ready, miss.ready + 1);
}

TEST_F(HierarchyTest, L2HitIsFasterThanMemory)
{
    // Fill a line, evict it from L1 only (L1 is 32KB DM), re-access:
    // should come back from L2 quickly.
    const auto a = mem_.dataAccess(0, 0x0000, false, 1000);
    Cycle t = a.ready + 10;
    const auto evict = mem_.dataAccess(0, 0x8000, false, t); // same L1 set.
    t = evict.ready + 10;
    const auto from_l2 = mem_.dataAccess(0, 0x0000, false, t);
    EXPECT_FALSE(from_l2.l1Hit);
    EXPECT_LT(from_l2.ready - t, 40u); // L2-ish latency, not ~80+.
    EXPECT_GT(from_l2.ready - t, 4u);
}

TEST_F(HierarchyTest, TlbMissAddsTwoMemoryAccesses)
{
    EXPECT_EQ(mem_.tlbMissPenalty(), 2u * (6 + 12 + 62));
    const auto r = mem_.dataAccess(0, 0x20000000, false, 1000);
    // Cold DTLB + cold caches: penalty plus the full miss path.
    EXPECT_GE(r.ready, 1000u + mem_.tlbMissPenalty());
    EXPECT_EQ(stats_.dtlb.misses, 1u);
}

TEST_F(HierarchyTest, OutstandingMissesTrackPerThread)
{
    EXPECT_EQ(mem_.outstandingDMisses(0, 1000), 0u);
    const auto r = mem_.dataAccess(0, 0x30000000, false, 1000);
    EXPECT_EQ(mem_.outstandingDMisses(0, 1001), 1u);
    EXPECT_EQ(mem_.outstandingDMisses(1, 1001), 0u);
    EXPECT_EQ(mem_.outstandingDMisses(0, r.ready + 1), 0u);
}

TEST_F(HierarchyTest, StoresDoNotCountAsOutstandingLoads)
{
    (void)mem_.dataAccess(0, 0x40000000, true, 1000);
    EXPECT_EQ(mem_.outstandingDMisses(0, 1001), 0u);
}

TEST_F(HierarchyTest, IcacheBankMapping)
{
    EXPECT_EQ(mem_.icacheBank(0), 0u);
    EXPECT_EQ(mem_.icacheBank(64), 1u);
    EXPECT_EQ(mem_.icacheBank(64 * 8), 0u);
}

} // namespace
} // namespace smt
