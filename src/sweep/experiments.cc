#include "sweep/experiments.hh"

#include <cstdio>

#include "common/logging.hh"
#include "stats/table.hh"

namespace smt::sweep
{

namespace
{

// Shorthand for axis-option construction.
AxisOption
opt(std::string label, std::vector<KnobAssignment> knobs,
    std::vector<unsigned> thread_counts = {})
{
    return AxisOption{std::move(label), std::move(knobs),
                      std::move(thread_counts)};
}

// ---- Figure 3 --------------------------------------------------------------

ExperimentSpec
fig3Spec()
{
    ExperimentSpec spec;
    spec.name = "fig3";
    spec.title = "Figure 3: base hardware throughput";
    spec.basePreset = "base";
    spec.threadCounts = paperThreadCounts();
    spec.axes = {{"machine",
                  {
                      opt("SMT RR.1.8", {}),
                      // The superscalar reference machine exists only
                      // at one thread and uses the short pipeline.
                      opt("unmodified superscalar",
                          {{"longRegisterPipeline", Json(false)}}, {1}),
                  }}};
    return spec;
}

void
fig3Report(const SweepOutcome &outcome)
{
    const ThreadSweep base = outcome.sweepFor({0}, "SMT RR.1.8");
    const DataPoint &superscalar = outcome.at({1}, 1).data;

    Table table("Figure 3: base hardware throughput (IPC)");
    table.setHeader({"machine", "1T", "2T", "4T", "6T", "8T"});
    {
        std::vector<std::string> row = {"SMT RR.1.8"};
        for (const DataPoint &p : base.points)
            row.push_back(fmtDouble(p.ipc(), 2));
        table.addRow(std::move(row));
    }
    table.addRow({"unmodified superscalar", fmtDouble(superscalar.ipc(), 2),
                  "-", "-", "-", "-"});
    std::printf("%s\n", table.render().c_str());

    const double ss = superscalar.ipc();
    const double single = base.ipcAt(1);
    const double peak = base.peakIpc();
    std::printf("single-thread SMT vs superscalar: %+.1f%%  "
                "(paper: less than -2%%)\n",
                100.0 * (single / ss - 1.0));
    std::printf("peak SMT speedup over superscalar: %.2fx  "
                "(paper: 1.84x)\n", peak / ss);
    printPaperNote(
        "Fig 3 shape: near-identical at 1 thread, rising throughput that "
        "flattens before 8 threads, peak ~1.8x the superscalar");
}

// ---- Figure 4 --------------------------------------------------------------

ExperimentSpec
fig4Spec()
{
    ExperimentSpec spec;
    spec.name = "fig4";
    spec.title = "Figure 4: fetch partitioning under round-robin";
    spec.basePreset = "base";
    spec.threadCounts = paperThreadCounts();
    spec.axes = {{"scheme",
                  {
                      opt("RR.1.8", {{"fetchThreads", Json(1u)},
                                     {"fetchPerThread", Json(8u)}}),
                      opt("RR.2.4", {{"fetchThreads", Json(2u)},
                                     {"fetchPerThread", Json(4u)}}),
                      opt("RR.4.2", {{"fetchThreads", Json(4u)},
                                     {"fetchPerThread", Json(2u)}}),
                      opt("RR.2.8", {{"fetchThreads", Json(2u)},
                                     {"fetchPerThread", Json(8u)}}),
                  }}};
    return spec;
}

void
fig4Report(const SweepOutcome &outcome)
{
    std::vector<ThreadSweep> sweeps;
    for (std::size_t i = 0; i < outcome.spec.axes[0].options.size(); ++i)
        sweeps.push_back(
            outcome.sweepFor({i}, outcome.spec.axes[0].options[i].label));

    Table table = ipcTable("Figure 4: fetch partitioning (IPC)", sweeps);
    std::printf("%s\n", table.render().c_str());

    const double rr18 = sweeps[0].ipcAt(8);
    std::printf("at 8 threads vs RR.1.8: RR.2.4 %+.1f%% (paper +9%%), "
                "RR.4.2 %+.1f%%, RR.2.8 %+.1f%% (paper ~+10%%)\n",
                100.0 * (sweeps[1].ipcAt(8) / rr18 - 1.0),
                100.0 * (sweeps[2].ipcAt(8) / rr18 - 1.0),
                100.0 * (sweeps[3].ipcAt(8) / rr18 - 1.0));
    printPaperNote(
        "Fig 4 shape: partitioning helps at high thread counts; RR.4.2 "
        "suffers thread shortage; RR.2.8 is best of both worlds");
}

// ---- Figure 5 --------------------------------------------------------------

const std::vector<std::string> &
fig5Policies()
{
    static const std::vector<std::string> policies = {
        "RR", "BRCOUNT", "MISSCOUNT", "ICOUNT", "IQPOSN",
    };
    return policies;
}

ExperimentSpec
fig5Spec()
{
    ExperimentSpec spec;
    spec.name = "fig5";
    spec.title = "Figure 5: fetch thread-priority policies";
    spec.basePreset = "base";
    spec.threadCounts = {2, 4, 6, 8};

    Axis partition{"partition",
                   {
                       opt("1.8", {{"fetchThreads", Json(1u)},
                                   {"fetchPerThread", Json(8u)}}),
                       opt("2.8", {{"fetchThreads", Json(2u)},
                                   {"fetchPerThread", Json(8u)}}),
                   }};
    Axis policy{"policy", {}};
    for (const std::string &p : fig5Policies())
        policy.options.push_back(opt(p, {{"fetchPolicy", Json(p)}}));
    spec.axes = {std::move(partition), std::move(policy)};
    return spec;
}

void
fig5Report(const SweepOutcome &outcome)
{
    const std::vector<std::string> &policies = fig5Policies();
    for (std::size_t pi = 0; pi < 2; ++pi) {
        const std::string &partition =
            outcome.spec.axes[0].options[pi].label;
        std::vector<ThreadSweep> sweeps;
        for (std::size_t i = 0; i < policies.size(); ++i)
            sweeps.push_back(outcome.sweepFor(
                {pi, i}, policies[i] + "." + partition));

        Table table = ipcTable("Figure 5: fetch priority policies, " +
                                   partition + " partitioning (IPC)",
                               sweeps);
        std::printf("%s\n", table.render().c_str());

        const double rr8 = sweeps[0].ipcAt(8);
        for (std::size_t i = 1; i < sweeps.size(); ++i) {
            std::printf("  %s vs RR at 8T: %+.1f%%\n",
                        sweeps[i].label.c_str(),
                        100.0 * (sweeps[i].ipcAt(8) / rr8 - 1.0));
        }
        std::printf("\n");
    }

    printPaperNote(
        "Fig 5 shape: ICOUNT best at every thread count (peak 5.3 IPC at "
        "ICOUNT.2.8); IQPOSN within 4% of ICOUNT; BRCOUNT/MISSCOUNT help "
        "mainly when saturated");
}

// ---- Figure 6 --------------------------------------------------------------

ExperimentSpec
fig6Spec()
{
    ExperimentSpec spec;
    spec.name = "fig6";
    spec.title = "Figure 6: BIGQ and ITAG fetch unblocking";
    spec.basePreset = "base";
    spec.threadCounts = paperThreadCounts();
    spec.axes = {
        {"partition",
         {
             opt("1.8", {{"fetchThreads", Json(1u)},
                         {"fetchPerThread", Json(8u)}}),
             opt("2.8", {{"fetchThreads", Json(2u)},
                         {"fetchPerThread", Json(8u)}}),
         }},
        {"variant",
         {
             opt("ICOUNT", {{"fetchPolicy", Json("ICOUNT")}}),
             opt("BIGQ,ICOUNT", {{"fetchPolicy", Json("ICOUNT")},
                                 {"intQueueEntries", Json(64u)},
                                 {"fpQueueEntries", Json(64u)},
                                 {"iqSearchWindow", Json(32u)}}),
             opt("ITAG,ICOUNT", {{"fetchPolicy", Json("ICOUNT")},
                                 {"itagEarlyLookup", Json(true)}}),
         }},
    };
    return spec;
}

void
fig6Report(const SweepOutcome &outcome)
{
    for (std::size_t pi = 0; pi < 2; ++pi) {
        const std::string suffix =
            "." + outcome.spec.axes[0].options[pi].label;
        std::vector<ThreadSweep> sweeps;
        for (std::size_t vi = 0; vi < 3; ++vi)
            sweeps.push_back(outcome.sweepFor(
                {pi, vi},
                outcome.spec.axes[1].options[vi].label + suffix));

        Table table = ipcTable(
            "Figure 6: BIGQ and ITAG on ICOUNT" + suffix + " (IPC)",
            sweeps);
        std::printf("%s\n", table.render().c_str());

        const double base8 = sweeps[0].ipcAt(8);
        std::printf("  at 8T vs ICOUNT%s: BIGQ %+.1f%%, ITAG %+.1f%%\n\n",
                    suffix.c_str(),
                    100.0 * (sweeps[1].ipcAt(8) / base8 - 1.0),
                    100.0 * (sweeps[2].ipcAt(8) / base8 - 1.0));
    }

    printPaperNote(
        "Fig 6 shape: BIGQ adds no significant improvement over ICOUNT; "
        "ITAG helps at many threads (more on 1.8 than 2.8) and hurts at "
        "few threads");
}

// ---- Figure 7 --------------------------------------------------------------

ExperimentSpec
fig7Spec()
{
    ExperimentSpec spec;
    spec.name = "fig7";
    spec.title = "Figure 7: fixed 200-register file, 1-5 contexts";
    spec.basePreset = "icount28";
    spec.threadCounts = {1, 2, 3, 4, 5};
    spec.axes = {{"registers",
                  {opt("200 total", {{"totalPhysRegisters", Json(200u)}})}}};
    return spec;
}

void
fig7Report(const SweepOutcome &outcome)
{
    Table table("Figure 7: 200 physical registers per file, 1-5 contexts");
    table.setHeader({"contexts", "excess regs", "IPC", "out-of-regs"});

    unsigned best_t = 0;
    double best_ipc = 0.0;
    for (unsigned t = 1; t <= 5; ++t) {
        const DataPoint &d = outcome.at({0}, t).data;
        table.addRow({std::to_string(t), std::to_string(200 - 32 * t),
                      fmtDouble(d.ipc(), 2),
                      fmtPercent(d.stats.outOfRegistersFraction())});
        if (d.ipc() > best_ipc) {
            best_ipc = d.ipc();
            best_t = t;
        }
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("maximum at %u contexts (paper: clear maximum at 4)\n",
                best_t);
    printPaperNote(
        "Fig 7 shape: throughput rises with contexts until the renaming "
        "register shortage bites; peak at 4 contexts with 200 registers");
}

// ---- Table 3 ---------------------------------------------------------------

ExperimentSpec
table3Spec()
{
    ExperimentSpec spec;
    spec.name = "table3";
    spec.title = "Table 3: base architecture low-level metrics";
    spec.basePreset = "base";
    spec.threadCounts = {1, 4, 8};
    return spec;
}

void
table3Report(const SweepOutcome &outcome)
{
    std::vector<DataPoint> points;
    for (unsigned t : {1u, 4u, 8u})
        points.push_back(outcome.at({}, t).data);

    Table table("Table 3: base architecture low-level metrics");
    table.setHeader({"metric", "1T", "4T", "8T", "paper 1T/4T/8T"});

    auto row = [&](const char *name, auto metric, const char *paper) {
        std::vector<std::string> r = {name};
        for (const DataPoint &p : points)
            r.push_back(metric(p.stats));
        r.push_back(paper);
        table.addRow(std::move(r));
    };

    row("out-of-registers (% cycles)",
        [](const SimStats &s) {
            return fmtPercent(s.outOfRegistersFraction());
        },
        "3% / 7% / 3%");
    row("I-cache miss rate",
        [](const SimStats &s) { return fmtPercent(s.icache.missRate()); },
        "2.5% / 7.8% / 14.1%");
    row("I-cache MPKI",
        [](const SimStats &s) {
            return fmtDouble(s.icache.mpki(s.committedInstructions), 1);
        },
        "6 / 17 / 29");
    row("D-cache miss rate",
        [](const SimStats &s) { return fmtPercent(s.dcache.missRate()); },
        "3.1% / 6.5% / 11.3%");
    row("D-cache MPKI",
        [](const SimStats &s) {
            return fmtDouble(s.dcache.mpki(s.committedInstructions), 1);
        },
        "12 / 25 / 43");
    row("L2 miss rate",
        [](const SimStats &s) { return fmtPercent(s.l2.missRate()); },
        "17.6% / 15.0% / 12.5%");
    row("L3 miss rate",
        [](const SimStats &s) { return fmtPercent(s.l3.missRate()); },
        "55.1% / 33.6% / 45.4%");
    row("branch mispredict rate",
        [](const SimStats &s) {
            return fmtPercent(s.branchMispredictRate());
        },
        "5.0% / 7.4% / 9.1%");
    row("jump mispredict rate",
        [](const SimStats &s) { return fmtPercent(s.jumpMispredictRate()); },
        "2.2% / 6.4% / 12.9%");
    row("integer IQ-full (% cycles)",
        [](const SimStats &s) { return fmtPercent(s.intIQFullFraction()); },
        "7% / 10% / 9%");
    row("fp IQ-full (% cycles)",
        [](const SimStats &s) { return fmtPercent(s.fpIQFullFraction()); },
        "14% / 9% / 3%");
    row("avg queue population",
        [](const SimStats &s) { return fmtDouble(s.avgQueuePopulation(), 1); },
        "25 / 25 / 27");
    row("wrong-path fetched",
        [](const SimStats &s) {
            return fmtPercent(s.wrongPathFetchedFraction());
        },
        "24% / 7% / 7%");
    row("wrong-path issued",
        [](const SimStats &s) {
            return fmtPercent(s.wrongPathIssuedFraction());
        },
        "9% / 4% / 3%");
    row("IPC (context)",
        [](const SimStats &s) { return fmtDouble(s.ipc(), 2); },
        "~2.1 / ~3.5 / ~3.9");

    std::printf("%s\n", table.render().c_str());
    printPaperNote(
        "Table 3 shape: cache and predictor pressure grow with threads; "
        "wrong-path fractions shrink; queues stay well-populated");
}

// ---- Table 4 ---------------------------------------------------------------

ExperimentSpec
table4Spec()
{
    ExperimentSpec spec;
    spec.name = "table4";
    spec.title = "Table 4: RR vs ICOUNT low-level metrics";
    spec.basePreset = "base";
    spec.threadCounts = {8};
    spec.axes = {{"machine",
                  {
                      opt("1 thread", {{"fetchThreads", Json(2u)},
                                       {"fetchPerThread", Json(8u)}},
                          {1}),
                      opt("RR @8T", {{"fetchThreads", Json(2u)},
                                     {"fetchPerThread", Json(8u)}}),
                      opt("ICOUNT @8T", {{"fetchPolicy", Json("ICOUNT")},
                                         {"fetchThreads", Json(2u)},
                                         {"fetchPerThread", Json(8u)}}),
                  }}};
    return spec;
}

void
table4Report(const SweepOutcome &outcome)
{
    const DataPoint &p1 = outcome.at({0}, 1).data;
    const DataPoint &prr = outcome.at({1}, 8).data;
    const DataPoint &pic = outcome.at({2}, 8).data;

    Table table("Table 4: RR vs ICOUNT low-level metrics "
                "(2.8 partitioning)");
    table.setHeader({"metric", "1 thread", "RR @8T", "ICOUNT @8T",
                     "paper (1T / RR8 / IC8)"});

    auto row = [&](const char *name, auto metric, const char *paper) {
        table.addRow({name, metric(p1.stats), metric(prr.stats),
                      metric(pic.stats), paper});
    };

    row("integer IQ-full (% cycles)",
        [](const SimStats &s) {
            return fmtPercent(s.intIQFullFraction());
        },
        "7% / 18% / 6%");
    row("fp IQ-full (% cycles)",
        [](const SimStats &s) {
            return fmtPercent(s.fpIQFullFraction());
        },
        "14% / 8% / 1%");
    row("avg queue population",
        [](const SimStats &s) {
            return fmtDouble(s.avgQueuePopulation(), 1);
        },
        "25 / 38 / 30");
    row("out-of-registers (% cycles)",
        [](const SimStats &s) {
            return fmtPercent(s.outOfRegistersFraction());
        },
        "3% / 8% / 5%");
    row("IPC",
        [](const SimStats &s) { return fmtDouble(s.ipc(), 2); },
        "- / 4.2 / 5.3");

    std::printf("%s\n", table.render().c_str());
    printPaperNote(
        "Table 4 shape: ICOUNT sharply reduces IQ-full conditions and "
        "queue population relative to RR at 8 threads — less pressure "
        "with 8 threads than with 1");
}

// ---- Table 5 ---------------------------------------------------------------

const std::vector<std::string> &
table5Policies()
{
    static const std::vector<std::string> policies = {
        "OLDEST_FIRST", "OPT_LAST", "SPEC_LAST", "BRANCH_FIRST",
    };
    return policies;
}

ExperimentSpec
table5Spec()
{
    ExperimentSpec spec;
    spec.name = "table5";
    spec.title = "Table 5: issue priority schemes";
    spec.basePreset = "icount28";
    spec.threadCounts = {1, 2, 4, 6, 8};
    Axis policy{"issue policy", {}};
    for (const std::string &p : table5Policies())
        policy.options.push_back(opt(p, {{"issuePolicy", Json(p)}}));
    spec.axes = {std::move(policy)};
    return spec;
}

void
table5Report(const SweepOutcome &outcome)
{
    Table table("Table 5: issue priority schemes (ICOUNT.2.8)");
    table.setHeader({"policy", "1T", "2T", "4T", "6T", "8T",
                     "wrong-path", "optimistic"});

    const std::vector<std::string> &policies = table5Policies();
    for (std::size_t i = 0; i < policies.size(); ++i) {
        std::vector<std::string> row = {policies[i]};
        for (unsigned t : outcome.spec.threadCounts)
            row.push_back(fmtDouble(outcome.at({i}, t).data.ipc(), 2));
        const SimStats &at8 = outcome.at({i}, 8).data.stats;
        row.push_back(fmtPercent(at8.wrongPathIssuedFraction()));
        row.push_back(fmtPercent(at8.optimisticSquashFraction()));
        table.addRow(std::move(row));
    }

    std::printf("%s\n", table.render().c_str());
    printPaperNote(
        "Table 5 shape: issue bandwidth is not a bottleneck — all four "
        "policies produce nearly identical throughput; useless issue "
        "stays in single digits (paper: 4% wrong-path + 3% optimistic)");
}

// ---- Smoke -----------------------------------------------------------------

ExperimentSpec
smokeSpec()
{
    ExperimentSpec spec;
    spec.name = "smoke";
    spec.title = "engine smoke grid (tiny budgets; exercises the cache)";
    spec.basePreset = "base";
    spec.threadCounts = {1, 2};
    spec.axes = {{"policy",
                  {
                      opt("RR", {}),
                      opt("ICOUNT", {{"fetchPolicy", Json("ICOUNT")}}),
                  }}};
    spec.cyclesPerRun = 1500;
    spec.warmupCycles = 500;
    spec.runs = 2;
    return spec;
}

void
smokeReport(const SweepOutcome &outcome)
{
    std::vector<ThreadSweep> sweeps;
    for (std::size_t i = 0; i < outcome.spec.axes[0].options.size(); ++i)
        sweeps.push_back(
            outcome.sweepFor({i}, outcome.spec.axes[0].options[i].label));
    Table table = ipcTable("Sweep-engine smoke grid (IPC)", sweeps);
    std::printf("%s\n", table.render().c_str());
}

} // namespace

const std::vector<NamedExperiment> &
allExperiments()
{
    static const std::vector<NamedExperiment> experiments = {
        {fig3Spec(), fig3Report},
        {fig4Spec(), fig4Report},
        {fig5Spec(), fig5Report},
        {fig6Spec(), fig6Report},
        {fig7Spec(), fig7Report},
        {table3Spec(), table3Report},
        {table4Spec(), table4Report},
        {table5Spec(), table5Report},
        {smokeSpec(), smokeReport},
    };
    return experiments;
}

const NamedExperiment *
findExperiment(const std::string &name)
{
    for (const NamedExperiment &e : allExperiments())
        if (e.spec.name == name)
            return &e;
    return nullptr;
}

} // namespace smt::sweep
