/**
 * @file
 * Cycle-identity oracle for the issue stage and everything it feeds.
 *
 * Each point runs one machine configuration for a fixed budget and
 * compares the digest of its serialized SimStats (sweep::toJson, the
 * per-thread stall ledger included) plus a few raw counters against
 * values recorded from the pre-wakeup-cell issue stage (the per-cycle
 * DynInst rescan). A single divergent cycle anywhere changes the
 * digest.
 *
 * The grid covers every issue policy x every speculation mode x
 * {32/32, BIGQ 64/32} x {short, long register pipeline} at 4 threads,
 * plus 1-thread, 8-thread, infinite-functional-unit and one 8-thread
 * point per fetch policy (RR, BRCOUNT, MISSCOUNT, ICOUNT, IQPOSN,
 * ICOUNT+MISSCOUNT), RR.1.8 at 1 thread, and two points whose
 * int, load/store and FP unit budgets run out in most cycles. The
 * BRCOUNT, MISSCOUNT and ICOUNT+MISSCOUNT rows were recorded later
 * than the rest, from the two-engine core that preceded the single
 * enum-switched one; the RR.1.8/t1 and starved-unit rows from the
 * per-cycle rescan of every waiting entry that preceded parked queue
 * entries. On a mismatch the failure message prints the point's
 * measured row in table syntax.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "sweep/digest.hh"
#include "sweep/serialize.hh"
#include "workload/mix.hh"

namespace smt
{
namespace
{

constexpr std::uint64_t kWarmupCycles = 5000;
constexpr std::uint64_t kMeasureCycles = 25000;

struct Expected
{
    const char *name;
    const char *digest;
    std::uint64_t committed;
    std::uint64_t issued;
    std::uint64_t optimisticSquashes;
    std::uint64_t operandWait; ///< issueOperandWait summed over threads.
    std::uint64_t fuBusy;      ///< issueFuBusy summed over threads.
};

// clang-format off
const Expected kExpected[] = {
    {"OLDEST_FIRST/full/q32/srp/t4", "81eab7dcc217bff0aa7abb7432f459eb", 67165, 78928, 3772, 586121, 61865},
    {"OLDEST_FIRST/full/q32/lrp/t4", "f1b30e966b63a7886c0a9af7b86d44e5", 62785, 74443, 4667, 550370, 43795},
    {"OLDEST_FIRST/full/bigq/srp/t4", "a08e0bf52b12fa0c58a10da678db39a2", 64977, 76144, 3518, 563058, 84372},
    {"OLDEST_FIRST/full/bigq/lrp/t4", "2fc02c12ecfdc360d0515d5ef2178bc8", 65964, 78863, 5276, 602087, 78663},
    {"OLDEST_FIRST/no-pass-branch/q32/srp/t4", "cbd80544c86fc01a5ccb52c91e84e4ef", 60550, 68869, 2759, 407267, 42579},
    {"OLDEST_FIRST/no-pass-branch/q32/lrp/t4", "68b8f8f2067e07f8fd572cd000ca33e3", 58651, 67360, 3548, 373694, 31422},
    {"OLDEST_FIRST/no-pass-branch/bigq/srp/t4", "c1b050fbc2bdc9b843843c43a522ca54", 60883, 69005, 2712, 409914, 62491},
    {"OLDEST_FIRST/no-pass-branch/bigq/lrp/t4", "21ca11887c919540100749094d31bfcc", 57975, 67082, 3786, 407946, 48391},
    {"OLDEST_FIRST/no-wrong-path-issue/q32/srp/t4", "a1ca8cc17693b95031b6d151d19f471c", 57684, 64887, 2569, 362227, 32885},
    {"OLDEST_FIRST/no-wrong-path-issue/q32/lrp/t4", "56f56289c12735ac9671d34533255266", 56617, 64015, 3235, 348360, 27410},
    {"OLDEST_FIRST/no-wrong-path-issue/bigq/srp/t4", "c58f40046c8182c2ddeea31ef0e3128b", 60812, 68999, 3031, 412468, 56613},
    {"OLDEST_FIRST/no-wrong-path-issue/bigq/lrp/t4", "45ee6869694694a82bad0d4f5590eab6", 55753, 63979, 3843, 412624, 42852},
    {"OPT_LAST/full/q32/srp/t4", "47b6fa0ad1af9e2836870bbca8f7f796", 65983, 75549, 1942, 571174, 53165},
    {"OPT_LAST/full/q32/lrp/t4", "3e0018138e5564283d18ced72eb0a17b", 59961, 70130, 3358, 544742, 31325},
    {"OPT_LAST/full/bigq/srp/t4", "686c9fc322eb87cc61eec1950302b2f2", 68098, 78235, 2010, 596176, 84544},
    {"OPT_LAST/full/bigq/lrp/t4", "217dd68912bccd84315cf7938bd25506", 63098, 74064, 3398, 646604, 56595},
    {"OPT_LAST/no-pass-branch/q32/srp/t4", "e957f73b37ed29a8d172beca118230c6", 60612, 67962, 1913, 419430, 35903},
    {"OPT_LAST/no-pass-branch/q32/lrp/t4", "8dfe426a214b65e404e969ee4061cc27", 56600, 64508, 2792, 380473, 24941},
    {"OPT_LAST/no-pass-branch/bigq/srp/t4", "dea75815237253f0a7da3fbfc1de7c60", 55169, 62312, 1729, 402961, 48374},
    {"OPT_LAST/no-pass-branch/bigq/lrp/t4", "1aa5b7e0c592f9d21c73478ca57ce1ed", 58512, 66681, 2847, 420828, 40859},
    {"OPT_LAST/no-wrong-path-issue/q32/srp/t4", "f32af73ea38e4ab6fab504126bd222cb", 58002, 64331, 1683, 373602, 30225},
    {"OPT_LAST/no-wrong-path-issue/q32/lrp/t4", "694950fc79f4413023a7461ea37dbaf0", 55657, 62604, 2655, 374067, 23052},
    {"OPT_LAST/no-wrong-path-issue/bigq/srp/t4", "8878ab05cf9be1b048d482c0a2209d93", 59918, 66639, 1916, 415671, 44877},
    {"OPT_LAST/no-wrong-path-issue/bigq/lrp/t4", "9f8f8dc1f86851606b4e3728c4a841c5", 55745, 63128, 3037, 414186, 34261},
    {"SPEC_LAST/full/q32/srp/t4", "25f4627ac4598b746d3bfb31795431bb", 65261, 75664, 3281, 546950, 60234},
    {"SPEC_LAST/full/q32/lrp/t4", "84968ac4b202c8b65ddefeb5f8f3b961", 64536, 76853, 5088, 536307, 46503},
    {"SPEC_LAST/full/bigq/srp/t4", "e93c917405412cc841a7581427656ba3", 70128, 81671, 3747, 599495, 96108},
    {"SPEC_LAST/full/bigq/lrp/t4", "b1830940eb16baec6ee2e248cf39b1da", 66531, 79658, 5338, 584695, 78396},
    {"SPEC_LAST/no-pass-branch/q32/srp/t4", "cbd80544c86fc01a5ccb52c91e84e4ef", 60550, 68869, 2759, 407267, 42579},
    {"SPEC_LAST/no-pass-branch/q32/lrp/t4", "68b8f8f2067e07f8fd572cd000ca33e3", 58651, 67360, 3548, 373694, 31422},
    {"SPEC_LAST/no-pass-branch/bigq/srp/t4", "c1b050fbc2bdc9b843843c43a522ca54", 60883, 69005, 2712, 409914, 62491},
    {"SPEC_LAST/no-pass-branch/bigq/lrp/t4", "21ca11887c919540100749094d31bfcc", 57975, 67082, 3786, 407946, 48391},
    {"SPEC_LAST/no-wrong-path-issue/q32/srp/t4", "a1ca8cc17693b95031b6d151d19f471c", 57684, 64887, 2569, 362227, 32885},
    {"SPEC_LAST/no-wrong-path-issue/q32/lrp/t4", "56f56289c12735ac9671d34533255266", 56617, 64015, 3235, 348360, 27410},
    {"SPEC_LAST/no-wrong-path-issue/bigq/srp/t4", "c58f40046c8182c2ddeea31ef0e3128b", 60812, 68999, 3031, 412468, 56613},
    {"SPEC_LAST/no-wrong-path-issue/bigq/lrp/t4", "45ee6869694694a82bad0d4f5590eab6", 55753, 63979, 3843, 412624, 42852},
    {"BRANCH_FIRST/full/q32/srp/t4", "3f6977e71cb02e00b1bb20dfd0459119", 62354, 72505, 3108, 568811, 50826},
    {"BRANCH_FIRST/full/q32/lrp/t4", "b0b53fff42b2d6bc4eb7e00fdeb520ef", 59090, 70808, 4720, 539691, 37958},
    {"BRANCH_FIRST/full/bigq/srp/t4", "12d4973eceb544b09732f07f453aa354", 68189, 79980, 3691, 617644, 93856},
    {"BRANCH_FIRST/full/bigq/lrp/t4", "020e00b3d75501b0b52bd59aaf73eccb", 66782, 79780, 5214, 572927, 74767},
    {"BRANCH_FIRST/no-pass-branch/q32/srp/t4", "a02e86f398d3f99806682dead960ba6c", 58032, 66086, 2574, 380658, 37662},
    {"BRANCH_FIRST/no-pass-branch/q32/lrp/t4", "06f94a099315b5587b3846759236568c", 58527, 66855, 3432, 383824, 28078},
    {"BRANCH_FIRST/no-pass-branch/bigq/srp/t4", "f583aeb91f25db40a66d58d95b94b648", 60446, 68534, 2683, 406971, 54745},
    {"BRANCH_FIRST/no-pass-branch/bigq/lrp/t4", "87ce2aba18a9b934e0ced4307bd00c2e", 53920, 62332, 3630, 397216, 41797},
    {"BRANCH_FIRST/no-wrong-path-issue/q32/srp/t4", "5ecbf56184396a708a147996e239fd15", 54436, 61250, 2385, 362968, 30488},
    {"BRANCH_FIRST/no-wrong-path-issue/q32/lrp/t4", "1861a5af6115ef0cfe299596a284c76a", 56076, 63639, 3405, 383229, 25250},
    {"BRANCH_FIRST/no-wrong-path-issue/bigq/srp/t4", "7e020043b146fae0a270806ca3d90e56", 58498, 65871, 2736, 413949, 47464},
    {"BRANCH_FIRST/no-wrong-path-issue/bigq/lrp/t4", "8ccaf4b1e69e68a8d60a496b762a82ac", 54726, 62710, 3714, 381211, 38377},
    {"icount28/t1", "4234a5882597ba30673cb663edd79ca0", 37372, 53717, 11686, 814165, 22696},
    {"icount28/t8", "5e825e51b5972dc4a4aaac9cb8c37c87", 60039, 70835, 4447, 616003, 40210},
    {"rr18/t8", "43590227f5bbfc809d0045022699be63", 57269, 66865, 3965, 635903, 31930},
    {"icount28/bigq/t8", "8e60002ba6367990f162bd1fcd14859c", 58106, 68447, 4282, 666365, 65444},
    {"iqposn28/t8", "5518d0fbfa212894e66d50eb19df1c1b", 59313, 70008, 4491, 671051, 40585},
    {"icount28/inffu/t8", "f93f6190c0b6d07ea6d099e3618a0cf7", 57240, 70597, 5501, 646174, 0},
    {"brcount28/t8", "85558ffc73d415843867df8dc1212bf3", 59508, 70051, 4414, 633374, 37952},
    {"misscount28/t8", "fa6b0a9394ded19ac91e87d61dd3964b", 58334, 68794, 4418, 627924, 38689},
    {"icountmisscount28/t8", "d6f07873fd239498edaef3327c57cbde", 58423, 69013, 4387, 634448, 40058},
    {"rr18/t1", "4234a5882597ba30673cb663edd79ca0", 37372, 53717, 11686, 814165, 22696},
    {"icount28/fu2ls1/t8", "31efff56f945d690776886cd01454738", 47015, 49677, 1508, 434769, 403047},
    {"BRANCH_FIRST/fu2ls1/t4", "5f591b3bff2b4ba09a6a7b12d95717f4", 46474, 48349, 936, 364292, 393086},
};
// clang-format on

struct Point
{
    std::string name;
    SmtConfig cfg;
};

std::vector<Point>
identityGrid()
{
    std::vector<Point> grid;
    const IssuePolicy policies[] = {IssuePolicy::OldestFirst,
                                    IssuePolicy::OptLast,
                                    IssuePolicy::SpecLast,
                                    IssuePolicy::BranchFirst};
    const SpeculationMode modes[] = {SpeculationMode::Full,
                                     SpeculationMode::NoPassBranch,
                                     SpeculationMode::NoWrongPathIssue};
    for (IssuePolicy ip : policies)
        for (SpeculationMode sm : modes)
            for (bool bigq : {false, true})
                for (bool lrp : {false, true}) {
                    SmtConfig cfg = presets::icount28(4);
                    cfg.issuePolicy = ip;
                    cfg.speculation = sm;
                    if (bigq) {
                        cfg.intQueueEntries = 64;
                        cfg.fpQueueEntries = 64;
                    }
                    cfg.longRegisterPipeline = lrp;
                    grid.push_back(
                        {std::string(toString(ip)) + "/" + toString(sm) +
                             (bigq ? "/bigq" : "/q32") +
                             (lrp ? "/lrp" : "/srp") + "/t4",
                         cfg});
                }

    grid.push_back({"icount28/t1", presets::icount28(1)});
    grid.push_back({"icount28/t8", presets::icount28(8)});
    grid.push_back({"rr18/t8", presets::baseSmt(8)});
    SmtConfig bigq8 = presets::icount28(8);
    bigq8.intQueueEntries = 64;
    bigq8.fpQueueEntries = 64;
    grid.push_back({"icount28/bigq/t8", bigq8});
    SmtConfig iqposn = presets::icount28(8);
    iqposn.fetchPolicy = FetchPolicy::IQPosn;
    grid.push_back({"iqposn28/t8", iqposn});
    const std::pair<const char *, FetchPolicy> fetch_points[] = {
        {"brcount28/t8", FetchPolicy::BrCount},
        {"misscount28/t8", FetchPolicy::MissCount},
        {"icountmisscount28/t8", FetchPolicy::ICountMissCount},
    };
    for (const auto &[name, fp] : fetch_points) {
        SmtConfig cfg = presets::icount28(8);
        cfg.fetchPolicy = fp;
        grid.push_back({name, cfg});
    }
    SmtConfig inf = presets::icount28(8);
    inf.infiniteFunctionalUnits = true;
    grid.push_back({"icount28/inffu/t8", inf});
    grid.push_back({"rr18/t1", presets::baseSmt(1)});
    // Unit budgets that run out in most cycles, so the stall ledger's
    // split between operand waits and busy units is exercised at every
    // exhaustion key (int, load/store, FP).
    const std::pair<const char *, IssuePolicy> starved_points[] = {
        {"icount28/fu2ls1/t8", IssuePolicy::OldestFirst},
        {"BRANCH_FIRST/fu2ls1/t4", IssuePolicy::BranchFirst},
    };
    for (const auto &[name, ip] : starved_points) {
        SmtConfig cfg = presets::icount28(name[0] == 'B' ? 4 : 8);
        cfg.issuePolicy = ip;
        cfg.intUnits = 2;
        cfg.loadStoreUnits = 1;
        cfg.fpUnits = 1;
        grid.push_back({name, cfg});
    }
    return grid;
}

const Expected *
findExpected(const std::string &name)
{
    for (const Expected &e : kExpected)
        if (name == e.name)
            return &e;
    return nullptr;
}

TEST(IdentityOracle, EveryPointMatchesRecordedStats)
{
    const std::vector<Point> grid = identityGrid();
    ASSERT_EQ(grid.size(), std::size(kExpected));
    for (const Point &p : grid) {
        Simulator sim(p.cfg, mixForRun(p.cfg.numThreads, 0));
        sim.warmup(kWarmupCycles);
        sim.run(kMeasureCycles);
        const SimStats &s = sim.stats();

        std::uint64_t wait = 0;
        std::uint64_t busy = 0;
        for (unsigned t = 0; t < kMaxThreads; ++t) {
            wait += s.stalls.issueOperandWait[t];
            busy += s.stalls.issueFuBusy[t];
        }
        const std::string digest =
            sweep::digestHex(sweep::toJson(s).dump());

        char row[256];
        std::snprintf(row, sizeof(row),
                      "    {\"%s\", \"%s\", %llu, %llu, %llu, %llu, %llu},",
                      p.name.c_str(), digest.c_str(),
                      static_cast<unsigned long long>(
                          s.committedInstructions),
                      static_cast<unsigned long long>(s.issuedInstructions),
                      static_cast<unsigned long long>(s.optimisticSquashes),
                      static_cast<unsigned long long>(wait),
                      static_cast<unsigned long long>(busy));

        const Expected *e = findExpected(p.name);
        ASSERT_NE(e, nullptr) << "no recorded row for\n" << row;
        EXPECT_EQ(digest, e->digest) << row;
        EXPECT_EQ(s.committedInstructions, e->committed) << row;
        EXPECT_EQ(s.issuedInstructions, e->issued) << row;
        EXPECT_EQ(s.optimisticSquashes, e->optimisticSquashes) << row;
        EXPECT_EQ(wait, e->operandWait) << row;
        EXPECT_EQ(busy, e->fuBusy) << row;
    }
}

} // namespace
} // namespace smt
