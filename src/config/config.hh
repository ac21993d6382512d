/**
 * @file
 * SmtConfig: every architectural knob evaluated in Tullsen et al. (ISCA'96),
 * with defaults matching the paper's base SMT machine (Section 2).
 *
 * Each experiment in the paper is expressible as a small mutation of the
 * default-constructed config; named presets for the paper's machines live
 * in config.cc.
 */

#ifndef SMT_CONFIG_CONFIG_HH
#define SMT_CONFIG_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace smt
{

/** Thread-selection priority policy for the fetch unit (Section 5.2). */
enum class FetchPolicy : std::uint8_t
{
    RoundRobin, ///< RR: rotate over threads not blocked on an I-cache miss.
    BrCount,    ///< fewest unresolved branches in decode/rename/IQ.
    MissCount,  ///< fewest outstanding D-cache misses.
    ICount,     ///< fewest instructions in decode/rename/IQ.
    IQPosn,     ///< instructions farthest from the IQ heads.
    ICountMissCount, ///< ICOUNT plus a MISSCOUNT term (beyond the paper).
};

/** Instruction-selection priority policy for issue (Section 6). */
enum class IssuePolicy : std::uint8_t
{
    OldestFirst, ///< deepest-in-queue first (default).
    OptLast,     ///< optimistically-issued loads' dependents last.
    SpecLast,    ///< instructions behind an unresolved same-thread branch
                 ///< last.
    BranchFirst, ///< branches as early as possible.
};

/** Speculation restrictions explored in Section 7. */
enum class SpeculationMode : std::uint8_t
{
    Full,            ///< normal operation: fully speculative issue.
    NoPassBranch,    ///< instructions may not issue before an earlier
                     ///< unresolved branch of the same thread.
    NoWrongPathIssue ///< guarantee no wrong-path issue: delay issue until
                     ///< 4 cycles after the preceding branch issued.
};

/** Geometry and timing of one cache level (Table 2). */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 1;            ///< 1 = direct mapped.
    unsigned lineBytes = 64;
    unsigned banks = 8;
    unsigned accessesPerCycle = 1; ///< per-bank issue rate numerator.
    unsigned cyclesPerAccess = 1;  ///< per-bank occupancy per access.
    unsigned transferCycles = 1;   ///< time on the bus from the level below.
    unsigned fillCycles = 2;       ///< bank busy time when a fill arrives.
    unsigned latencyToNext = 6;    ///< request latency to the next level.
    unsigned mshrs = 32;           ///< outstanding-miss capacity.
};

/** The complete machine configuration. */
struct SmtConfig
{
    // ---- Threads and widths -------------------------------------------
    unsigned numThreads = 8;       ///< hardware contexts.
    unsigned fetchWidth = 8;       ///< max total instructions fetched/cycle.
    unsigned fetchThreads = 1;     ///< num1 in alg.num1.num2.
    unsigned fetchPerThread = 8;   ///< num2 in alg.num1.num2.
    unsigned decodeWidth = 8;
    unsigned renameWidth = 8;
    unsigned commitWidth = 8;      ///< shared, retirement in order per
                                   ///< thread.

    // ---- Fetch / issue policy ------------------------------------------
    FetchPolicy fetchPolicy = FetchPolicy::RoundRobin;
    IssuePolicy issuePolicy = IssuePolicy::OldestFirst;
    SpeculationMode speculation = SpeculationMode::Full;
    bool itagEarlyLookup = false;  ///< ITAG: probe I-cache tags a cycle
                                   ///< early; adds one front-end stage.

    // ---- Instruction queues (Section 2.1 / BIGQ of Section 5.3) --------
    unsigned intQueueEntries = 32;
    unsigned fpQueueEntries = 32;
    unsigned iqSearchWindow = 32;  ///< entries eligible for issue search;
                                   ///< BIGQ doubles entries, keeps this 32.

    // ---- Functional units ----------------------------------------------
    unsigned intUnits = 6;
    unsigned loadStoreUnits = 4;   ///< subset of the integer units.
    unsigned fpUnits = 3;
    bool infiniteFunctionalUnits = false; ///< Section 7 bottleneck probe.

    // ---- Register files --------------------------------------------------
    /**
     * Renaming registers per file beyond the architectural 32 per thread.
     * Physical registers per file = 32 * numThreads + excessRegisters,
     * unless totalPhysRegisters overrides the sum (Figure 7).
     */
    unsigned excessRegisters = 100;
    /** When nonzero: fix the total per-file physical registers (Fig. 7). */
    unsigned totalPhysRegisters = 0;

    // ---- Pipeline ---------------------------------------------------------
    /**
     * True models the SMT pipeline of Figure 2(b): two register-read
     * stages and an extra register-write stage. False models the
     * conventional superscalar pipeline of Figure 2(a).
     */
    bool longRegisterPipeline = true;

    // ---- Branch prediction ----------------------------------------------
    unsigned btbEntries = 256;
    unsigned btbAssoc = 4;
    bool btbThreadIds = true;      ///< tag entries with thread ids to avoid
                                   ///< phantom branches (Section 2).
    unsigned phtEntries = 2048;    ///< 2K x 2-bit pattern history table.
    unsigned phtHistoryBits = 6;   ///< global-history length for gshare.
    unsigned rasEntries = 12;      ///< per-context return stack.
    bool perfectBranchPrediction = false; ///< Section 7 probe.

    // ---- Memory hierarchy (Table 2) --------------------------------------
    CacheParams icache{"ICache", 32 * 1024, 1, 64, 8, 4, 1, 1, 2, 6, 32};
    CacheParams dcache{"DCache", 32 * 1024, 1, 64, 8, 4, 1, 1, 2, 6, 32};
    CacheParams l2{"L2", 256 * 1024, 4, 64, 8, 1, 1, 1, 2, 12, 32};
    CacheParams l3{"L3", 2 * 1024 * 1024, 1, 64, 1, 1, 4, 4, 8, 62, 32};
    bool infiniteCacheBandwidth = false; ///< latencies kept, no bank/bus
                                         ///< conflicts (Section 7 probe).

    unsigned itlbEntries = 64;
    unsigned dtlbEntries = 64;
    unsigned pageBytes = 8 * 1024;

    /** Bits of address used for memory disambiguation (Section 2.1). */
    unsigned disambiguationBits = 10;

    // ---- Simulation control ----------------------------------------------
    std::uint64_t seed = 1;

    // ---- Derived quantities ----------------------------------------------
    /** Physical registers per file implied by this config. */
    unsigned
    physRegsPerFile() const
    {
        if (totalPhysRegisters != 0)
            return totalPhysRegisters;
        return kLogRegsPerFile * numThreads + excessRegisters;
    }

    /** A human-readable fetch-scheme label, e.g. "ICOUNT.2.8". */
    std::string fetchSchemeName() const;

    /** Abort with a description if the configuration is inconsistent. */
    void validate() const;
};

/** Named machine presets used throughout tests, examples, and benches. */
namespace presets
{

/** The base SMT machine of Section 2 (RR.1.8 fetch). */
SmtConfig baseSmt(unsigned threads);

/** The unmodified superscalar: one thread, short register pipeline. */
SmtConfig unmodifiedSuperscalar();

/**
 * The improved machine of Section 7: ICOUNT.2.8 fetch with the base
 * hardware sizes.
 */
SmtConfig icount28(unsigned threads);

/** Set the fetch partitioning scheme (num1 x num2, total width 8). */
void setFetchPartition(SmtConfig &cfg, unsigned threads_per_cycle,
                       unsigned width_per_thread);

} // namespace presets

/** Every fetch policy, in enum (and presentation) order. */
inline constexpr FetchPolicy kFetchPolicies[] = {
    FetchPolicy::RoundRobin, FetchPolicy::BrCount,
    FetchPolicy::MissCount,  FetchPolicy::ICount,
    FetchPolicy::IQPosn,     FetchPolicy::ICountMissCount,
};

/** Every issue policy, in enum (and presentation) order. */
inline constexpr IssuePolicy kIssuePolicies[] = {
    IssuePolicy::OldestFirst,
    IssuePolicy::OptLast,
    IssuePolicy::SpecLast,
    IssuePolicy::BranchFirst,
};

/** The paper names of the policies ("ICOUNT", "OPT_LAST", ...); the
 *  sweep knobs and the measurement digest spell policies this way. */
const char *toString(FetchPolicy p);
const char *toString(IssuePolicy p);
const char *toString(SpeculationMode m);

/** Map a paper name back to its policy; false when no policy has it. */
bool parseFetchPolicy(const std::string &name, FetchPolicy &out);
bool parseIssuePolicy(const std::string &name, IssuePolicy &out);

} // namespace smt

#endif // SMT_CONFIG_CONFIG_HH
