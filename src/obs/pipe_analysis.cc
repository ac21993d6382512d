#include "obs/pipe_analysis.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/histogram.hh"
#include "obs/chrome_trace.hh"

namespace smt::obs
{

namespace
{

/** Event names that mark a trace id as a pipetrace stream. */
bool
isPipeEvent(const std::string &event)
{
    return event == "pipe_start" || event == "pipe_done"
           || event == "fetch" || event == "decode"
           || event == "rename" || event == "rename_blocked"
           || event == "issue" || event == "exec"
           || event == "requeue" || event == "commit"
           || event == "squash" || event == "sample";
}

std::string
getString(const sweep::Json &j, const char *key)
{
    if (j.has(key) && j.at(key).type() == sweep::Json::Type::String)
        return j.at(key).asString();
    return "";
}

std::uint64_t
getUInt(const sweep::Json &j, const char *key, std::uint64_t fallback)
{
    if (j.has(key) && j.at(key).isNumber())
        return j.at(key).asUInt();
    return fallback;
}

std::vector<std::uint64_t>
getUIntArray(const sweep::Json &j, const char *key)
{
    std::vector<std::uint64_t> out;
    if (!j.has(key) || j.at(key).type() != sweep::Json::Type::Array)
        return out;
    const sweep::Json &arr = j.at(key);
    out.reserve(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i)
        out.push_back(arr[i].isNumber() ? arr[i].asUInt() : 0);
    return out;
}

LatencySummary
summarize(std::vector<double> &values)
{
    LatencySummary s;
    s.count = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    double sum = 0.0;
    for (double v : values)
        sum += v;
    s.mean = sum / static_cast<double>(values.size());
    s.p50 = percentile(values, 50.0);
    s.p90 = percentile(values, 90.0);
    s.p99 = percentile(values, 99.0);
    s.max = values.back();
    return s;
}

/** The cycle distance of a stage transition, when both ends exist. */
void
addTransition(std::map<std::string, std::vector<double>> &pops,
              const char *name, Cycle from, Cycle to)
{
    if (from == kCycleNever || to == kCycleNever || to < from)
        return;
    pops[name].push_back(static_cast<double>(to - from));
}

sweep::Json
latencyJson(const LatencySummary &s)
{
    sweep::Json j = sweep::Json::object();
    j.set("count", sweep::Json(static_cast<std::uint64_t>(s.count)));
    j.set("mean", sweep::Json(s.mean));
    j.set("p50", sweep::Json(s.p50));
    j.set("p90", sweep::Json(s.p90));
    j.set("p99", sweep::Json(s.p99));
    j.set("max", sweep::Json(s.max));
    return j;
}

const PipeStream *
pickStream(const PipeAnalysis &analysis, const std::string &trace_id)
{
    const PipeStream *best = nullptr;
    for (const PipeStream &s : analysis.streams) {
        if (!trace_id.empty()) {
            if (s.id == trace_id)
                return &s;
            continue;
        }
        if (best == nullptr || s.insts.size() > best->insts.size())
            best = &s;
    }
    return best;
}

} // namespace

PipeAnalysis
analyzePipe(const TraceSet &set)
{
    PipeAnalysis analysis;

    // Demultiplex by trace id; reconstruct lifecycles seq-keyed.
    std::map<std::string, PipeStream> streams;
    std::map<std::string, std::map<InstSeqNum, PipeInst>> insts;

    for (const TraceEvent &ev : set.events) {
        if (!isPipeEvent(ev.event))
            continue;
        PipeStream &s = streams[ev.trace];
        s.id = ev.trace;
        const sweep::Json &f = ev.fields;
        const Cycle cyc = getUInt(f, "cyc", 0);
        if (f.has("cyc")) {
            if (cyc < s.firstCycle)
                s.firstCycle = cyc;
            if (cyc > s.lastCycle)
                s.lastCycle = cyc;
        }

        if (ev.event == "pipe_start") {
            s.hasStart = true;
            s.label = getString(f, "label");
            s.digest = getString(f, "digest");
            s.run = getUInt(f, "run", 0);
            s.threads = static_cast<unsigned>(getUInt(f, "threads", 0));
            s.windowFirst = getUInt(f, "window_first", 0);
            s.windowLast = getUInt(f, "window_last", kCycleNever);
            s.samplePeriod = getUInt(f, "sample_period", 0);
            continue;
        }
        if (ev.event == "pipe_done") {
            s.hasDone = true;
            s.drained = getUInt(f, "drained", 0);
            continue;
        }
        if (ev.event == "rename_blocked") {
            const std::string cause = getString(f, "cause");
            if (cause == "iq_full")
                ++s.renameBlockedIqFull;
            else if (cause == "no_regs")
                ++s.renameBlockedNoRegs;
            continue;
        }
        if (ev.event == "sample") {
            PipeSample sample;
            sample.cyc = cyc;
            sample.iq = getUIntArray(f, "iq");
            sample.fe = getUIntArray(f, "fe");
            sample.fetched = getUIntArray(f, "fetched");
            sample.issued = getUIntArray(f, "issued");
            sample.intq = getUInt(f, "intq", 0);
            sample.fpq = getUInt(f, "fpq", 0);
            if (f.has("stalls"))
                sample.stalls = f.at("stalls");
            s.samples.push_back(std::move(sample));
            continue;
        }

        // Per-instruction lifecycle events.
        if (!f.has("seq"))
            continue;
        const InstSeqNum seq = getUInt(f, "seq", 0);
        PipeInst &inst = insts[ev.trace][seq];
        inst.seq = seq;
        if (ev.event == "fetch") {
            inst.tid = static_cast<unsigned>(getUInt(f, "t", 0));
            inst.pc = getUInt(f, "pc", 0);
            inst.op = getString(f, "op");
            inst.wrongPath = f.has("wp");
            inst.fetch = cyc;
        } else if (ev.event == "decode") {
            inst.decode = cyc;
        } else if (ev.event == "rename") {
            inst.rename = cyc;
        } else if (ev.event == "issue") {
            inst.issue = cyc;
            if (f.has("opt"))
                inst.optimistic = true;
        } else if (ev.event == "exec") {
            inst.exec = cyc;
        } else if (ev.event == "requeue") {
            ++inst.requeues;
        } else if (ev.event == "commit") {
            inst.commit = cyc;
        } else if (ev.event == "squash") {
            inst.squash = cyc;
            inst.squashCause = getString(f, "cause");
            inst.squashStage = getString(f, "stage");
        }
    }

    // Finalize streams: seq-sorted instructions, cycle-sorted samples,
    // thread counts, and the corpus-wide aggregates.
    std::map<std::string, std::vector<double>> latency_pops;
    std::map<std::string, std::vector<double>> residency_pops;

    for (auto &[id, s] : streams) {
        auto it = insts.find(id);
        if (it != insts.end()) {
            s.insts.reserve(it->second.size());
            for (auto &[seq, inst] : it->second)
                s.insts.push_back(std::move(inst));
        }
        std::sort(s.samples.begin(), s.samples.end(),
                  [](const PipeSample &a, const PipeSample &b) {
                      return a.cyc < b.cyc;
                  });

        unsigned max_tid = 0;
        for (const PipeInst &inst : s.insts)
            max_tid = std::max(max_tid, inst.tid);
        if (s.threads == 0)
            s.threads = max_tid + 1;
        for (const PipeSample &sample : s.samples)
            s.threads = std::max(
                s.threads, static_cast<unsigned>(sample.iq.size()));

        analysis.threads = std::max(analysis.threads, s.threads);
        analysis.instructions += s.insts.size();
        analysis.drained += s.drained;
        analysis.requeues += 0; // per-inst below.
        analysis.renameBlockedIqFull += s.renameBlockedIqFull;
        analysis.renameBlockedNoRegs += s.renameBlockedNoRegs;
        if (!s.hasStart)
            ++analysis.missingStart;
        if (!s.hasDone)
            ++analysis.missingDone;

        for (const PipeInst &inst : s.insts) {
            if (inst.committed())
                ++analysis.committed;
            else if (inst.squashed())
                ++analysis.squashed;
            else
                ++analysis.open;
            if (inst.wrongPath) {
                ++analysis.wrongPathFetched;
                if (inst.issue != kCycleNever)
                    ++analysis.wrongPathIssued;
            }
            analysis.requeues += inst.requeues;

            addTransition(latency_pops, "fetchToDecode", inst.fetch,
                          inst.decode);
            addTransition(latency_pops, "decodeToRename", inst.decode,
                          inst.rename);
            addTransition(latency_pops, "renameToIssue", inst.rename,
                          inst.issue);
            addTransition(latency_pops, "issueToExec", inst.issue,
                          inst.exec);
            addTransition(latency_pops, "execToCommit", inst.exec,
                          inst.commit);
            addTransition(latency_pops, "fetchToCommit", inst.fetch,
                          inst.commit);
            if (!inst.op.empty() && inst.rename != kCycleNever
                && inst.issue != kCycleNever && inst.issue >= inst.rename)
                residency_pops[inst.op].push_back(
                    static_cast<double>(inst.issue - inst.rename));
        }
    }

    for (auto &[name, values] : latency_pops)
        analysis.stageLatency[name] = summarize(values);
    for (auto &[name, values] : residency_pops)
        analysis.iqResidencyByOp[name] = summarize(values);

    analysis.streams.reserve(streams.size());
    for (auto &[id, s] : streams)
        analysis.streams.push_back(std::move(s));

    // Slot shares from the best-sampled stream's last sample.
    const PipeStream *sampled = nullptr;
    for (const PipeStream &s : analysis.streams) {
        if (!s.samples.empty()
            && (sampled == nullptr
                || s.samples.size() > sampled->samples.size()))
            sampled = &s;
    }
    if (sampled != nullptr) {
        analysis.fetchSlots = sampled->samples.back().fetched;
        analysis.issueSlots = sampled->samples.back().issued;
    }
    return analysis;
}

sweep::Json
pipeSummary(const PipeAnalysis &analysis, const TraceSet &set)
{
    sweep::Json doc = sweep::Json::object();
    doc.set("schema", sweep::Json("smt-pipe-v1"));

    sweep::Json reader = sweep::Json::object();
    reader.set("lines",
               sweep::Json(static_cast<std::uint64_t>(set.lines)));
    reader.set("skipped",
               sweep::Json(static_cast<std::uint64_t>(set.skipped)));
    reader.set("duplicates", sweep::Json(static_cast<std::uint64_t>(
                                 set.duplicates)));
    doc.set("reader", std::move(reader));

    doc.set("streams", sweep::Json(static_cast<std::uint64_t>(
                           analysis.streams.size())));
    doc.set("instructions", sweep::Json(static_cast<std::uint64_t>(
                                analysis.instructions)));
    doc.set("committed", sweep::Json(static_cast<std::uint64_t>(
                             analysis.committed)));
    doc.set("squashed", sweep::Json(static_cast<std::uint64_t>(
                            analysis.squashed)));
    doc.set("drained", sweep::Json(static_cast<std::uint64_t>(
                           analysis.drained)));
    doc.set("openInstructions",
            sweep::Json(static_cast<std::uint64_t>(analysis.open)));
    doc.set("threads", sweep::Json(analysis.threads));

    sweep::Json wp = sweep::Json::object();
    wp.set("fetched", sweep::Json(static_cast<std::uint64_t>(
                          analysis.wrongPathFetched)));
    wp.set("issued", sweep::Json(static_cast<std::uint64_t>(
                         analysis.wrongPathIssued)));
    wp.set("fetchedFraction",
           sweep::Json(analysis.instructions == 0
                           ? 0.0
                           : static_cast<double>(
                                 analysis.wrongPathFetched)
                                 / static_cast<double>(
                                     analysis.instructions)));
    doc.set("wrongPath", std::move(wp));

    doc.set("requeues", sweep::Json(static_cast<std::uint64_t>(
                            analysis.requeues)));
    sweep::Json rb = sweep::Json::object();
    rb.set("iqFull", sweep::Json(analysis.renameBlockedIqFull));
    rb.set("noRegs", sweep::Json(analysis.renameBlockedNoRegs));
    doc.set("renameBlocked", std::move(rb));

    sweep::Json lat = sweep::Json::object();
    for (const auto &[name, s] : analysis.stageLatency)
        lat.set(name, latencyJson(s));
    doc.set("stageLatency", std::move(lat));

    sweep::Json residency = sweep::Json::object();
    for (const auto &[name, s] : analysis.iqResidencyByOp)
        residency.set(name, latencyJson(s));
    doc.set("iqResidencyByOp", std::move(residency));

    sweep::Json fetch_slots = sweep::Json::array();
    for (std::uint64_t v : analysis.fetchSlots)
        fetch_slots.push(sweep::Json(v));
    doc.set("fetchSlots", std::move(fetch_slots));
    sweep::Json issue_slots = sweep::Json::array();
    for (std::uint64_t v : analysis.issueSlots)
        issue_slots.push(sweep::Json(v));
    doc.set("issueSlots", std::move(issue_slots));

    doc.set("missingStart", sweep::Json(static_cast<std::uint64_t>(
                                analysis.missingStart)));
    doc.set("missingDone", sweep::Json(static_cast<std::uint64_t>(
                               analysis.missingDone)));

    sweep::Json streams = sweep::Json::array();
    for (const PipeStream &s : analysis.streams) {
        sweep::Json j = sweep::Json::object();
        j.set("id", sweep::Json(s.id));
        if (!s.label.empty())
            j.set("label", sweep::Json(s.label));
        if (!s.digest.empty())
            j.set("digest", sweep::Json(s.digest));
        j.set("run", sweep::Json(s.run));
        j.set("threads", sweep::Json(s.threads));
        j.set("instructions", sweep::Json(static_cast<std::uint64_t>(
                                  s.insts.size())));
        j.set("samples", sweep::Json(static_cast<std::uint64_t>(
                             s.samples.size())));
        j.set("complete", sweep::Json(s.hasStart && s.hasDone));
        streams.push(std::move(j));
    }
    doc.set("streamsDetail", std::move(streams));
    return doc;
}

std::string
pipeReport(const PipeAnalysis &analysis, const TraceSet &set)
{
    std::string out;
    char buf[512];
    const auto add = [&out](const char *text) { out += text; };

    std::snprintf(buf, sizeof buf,
                  "pipetrace: %zu stream(s), %zu instruction(s), "
                  "%zu line(s) read (%zu skipped, %zu duplicate)\n",
                  analysis.streams.size(), analysis.instructions,
                  set.lines, set.skipped, set.duplicates);
    add(buf);

    for (const PipeStream &s : analysis.streams) {
        std::snprintf(
            buf, sizeof buf,
            "  %s%s%s run %llu: %zu inst, %zu sample(s), "
            "cycles %llu..%llu%s\n",
            s.id.c_str(), s.label.empty() ? "" : "  ",
            s.label.c_str(), static_cast<unsigned long long>(s.run),
            s.insts.size(), s.samples.size(),
            static_cast<unsigned long long>(
                s.firstCycle == kCycleNever ? 0 : s.firstCycle),
            static_cast<unsigned long long>(s.lastCycle),
            s.hasDone ? "" : "  [TRUNCATED]");
        add(buf);
    }

    std::snprintf(buf, sizeof buf,
                  "\nlifecycles: %zu committed, %zu squashed "
                  "(%zu drained at run end), %zu open\n",
                  analysis.committed, analysis.squashed,
                  analysis.drained, analysis.open);
    add(buf);
    std::snprintf(buf, sizeof buf,
                  "wrong path: %zu fetched, %zu issued (waste the "
                  "paper's Section 4 charges to fetch policy)\n",
                  analysis.wrongPathFetched, analysis.wrongPathIssued);
    add(buf);
    std::snprintf(buf, sizeof buf,
                  "requeues: %zu (bank conflicts + stale optimistic "
                  "wakeups); rename blocked: %llu iq_full, %llu "
                  "no_regs\n",
                  analysis.requeues,
                  static_cast<unsigned long long>(
                      analysis.renameBlockedIqFull),
                  static_cast<unsigned long long>(
                      analysis.renameBlockedNoRegs));
    add(buf);

    if (!analysis.stageLatency.empty()) {
        add("\nstage latency (cycles):\n");
        add("  transition        count    mean     p50     p90     "
            "p99     max\n");
        for (const auto &[name, s] : analysis.stageLatency) {
            std::snprintf(buf, sizeof buf,
                          "  %-15s %7zu %7.1f %7.0f %7.0f %7.0f "
                          "%7.0f\n",
                          name.c_str(), s.count, s.mean, s.p50, s.p90,
                          s.p99, s.max);
            add(buf);
        }
    }

    if (!analysis.iqResidencyByOp.empty()) {
        add("\nIQ residency by op class (rename -> issue, cycles):\n");
        for (const auto &[name, s] : analysis.iqResidencyByOp) {
            std::snprintf(buf, sizeof buf,
                          "  %-12s %7zu %7.1f %7.0f %7.0f %7.0f\n",
                          name.c_str(), s.count, s.mean, s.p50, s.p90,
                          s.max);
            add(buf);
        }
    }

    if (!analysis.fetchSlots.empty()) {
        add("\nper-thread progress at last sample "
            "(cumulative fetched/issued):\n");
        for (std::size_t t = 0; t < analysis.fetchSlots.size(); ++t) {
            const std::uint64_t issued =
                t < analysis.issueSlots.size() ? analysis.issueSlots[t]
                                               : 0;
            std::snprintf(
                buf, sizeof buf, "  T%zu  %10llu %10llu\n", t,
                static_cast<unsigned long long>(analysis.fetchSlots[t]),
                static_cast<unsigned long long>(issued));
            add(buf);
        }
    }

    return out;
}

sweep::Json
pipeChromeTrace(const PipeAnalysis &analysis,
                const std::string &trace_id)
{
    ChromeTraceBuilder chrome;
    const PipeStream *stream = pickStream(analysis, trace_id);
    if (stream == nullptr)
        return chrome.build();

    const Cycle t0 =
        stream->firstCycle == kCycleNever ? 0 : stream->firstCycle;
    const auto us = [t0](Cycle c) {
        return static_cast<double>(c - t0);
    };

    // Lanes: one Chrome process per hardware thread, one lane group
    // per pipeline stage; overlapping instructions fan out within the
    // group. 1 simulated cycle = 1 µs.
    struct StageSpan
    {
        const char *name;
        Cycle PipeInst::*from;
        Cycle PipeInst::*to;
    };
    static constexpr StageSpan kSpans[] = {
        {"frontend", &PipeInst::fetch, &PipeInst::decode},
        {"decode", &PipeInst::decode, &PipeInst::rename},
        {"queue", &PipeInst::rename, &PipeInst::issue},
        {"exec", &PipeInst::issue, &PipeInst::exec},
        {"rob", &PipeInst::exec, &PipeInst::commit},
    };
    constexpr std::uint64_t kLaneStride = 256;

    for (unsigned t = 0; t < stream->threads; ++t) {
        char name[32];
        std::snprintf(name, sizeof name, "thread %u", t);
        chrome.processName(t + 1, name);
    }

    // Spans must reach each lane group sorted by start; instructions
    // are seq-sorted, which is fetch-ordered, but later stages can
    // reorder, so collect and sort per (thread, stage).
    struct Span
    {
        double startUs;
        double durUs;
        const PipeInst *inst;
    };
    for (unsigned t = 0; t < stream->threads; ++t) {
        const std::uint64_t pid = t + 1;
        for (std::size_t si = 0; si < std::size(kSpans); ++si) {
            const StageSpan &sp = kSpans[si];
            std::vector<Span> spans;
            for (const PipeInst &inst : stream->insts) {
                if (inst.tid != t)
                    continue;
                Cycle from = inst.*(sp.from);
                Cycle to = inst.*(sp.to);
                // A squashed instruction's open segment closes at the
                // squash cycle.
                if (from != kCycleNever && to == kCycleNever
                    && inst.squash != kCycleNever
                    && inst.squash >= from)
                    to = inst.squash;
                if (from == kCycleNever || to == kCycleNever
                    || to < from)
                    continue;
                const double dur = to > from
                                       ? static_cast<double>(to - from)
                                       : 0.5;
                spans.push_back(Span{us(from), dur, &inst});
            }
            std::sort(spans.begin(), spans.end(),
                      [](const Span &a, const Span &b) {
                          return a.startUs < b.startUs;
                      });
            char group[48];
            std::snprintf(group, sizeof group, "t%u/%s", t, sp.name);
            for (const Span &span : spans) {
                const std::uint64_t lane = chrome.lane(
                    group, span.startUs, span.startUs + span.durUs);
                sweep::Json args = sweep::Json::object();
                args.set("seq", sweep::Json(span.inst->seq));
                args.set("pc", sweep::Json(span.inst->pc));
                if (span.inst->wrongPath)
                    args.set("wp", sweep::Json(true));
                chrome.complete(
                    pid, si * kLaneStride + lane,
                    span.inst->op.empty() ? "inst" : span.inst->op,
                    span.inst->squashed() ? "squashed" : sp.name,
                    span.startUs, span.durUs, std::move(args));
            }
            for (std::uint64_t lane = 0; lane < chrome.laneCount(group);
                 ++lane) {
                char lname[64];
                std::snprintf(lname, sizeof lname, "%s #%llu", sp.name,
                              static_cast<unsigned long long>(lane));
                chrome.threadName(pid, si * kLaneStride + lane, lname);
            }
        }
    }

    // Squashes as instants on the owning thread's track.
    for (const PipeInst &inst : stream->insts) {
        if (!inst.squashed() || inst.tid >= stream->threads)
            continue;
        sweep::Json args = sweep::Json::object();
        args.set("seq", sweep::Json(inst.seq));
        if (!inst.squashCause.empty())
            args.set("cause", sweep::Json(inst.squashCause));
        chrome.instant(inst.tid + 1, 0, "squash", "lifecycle",
                       us(inst.squash), std::move(args));
    }
    return chrome.build();
}

std::vector<std::string>
checkPipe(const PipeAnalysis &analysis)
{
    std::vector<std::string> problems;
    char buf[256];
    if (analysis.streams.empty()) {
        problems.emplace_back("no pipetrace stream found in the "
                              "corpus (no pipe events at all)");
        return problems;
    }
    for (const PipeStream &s : analysis.streams) {
        if (!s.hasStart) {
            std::snprintf(buf, sizeof buf,
                          "stream %s has no pipe_start line",
                          s.id.c_str());
            problems.emplace_back(buf);
        }
        if (!s.hasDone) {
            std::snprintf(buf, sizeof buf,
                          "stream %s has no pipe_done line "
                          "(truncated file?)",
                          s.id.c_str());
            problems.emplace_back(buf);
        }
        std::size_t open = 0;
        for (const PipeInst &inst : s.insts)
            if (!inst.terminal())
                ++open;
        if (open > 0) {
            std::snprintf(buf, sizeof buf,
                          "stream %s: %zu traced instruction(s) "
                          "never reached commit or squash",
                          s.id.c_str(), open);
            problems.emplace_back(buf);
        }
    }
    return problems;
}

} // namespace smt::obs
