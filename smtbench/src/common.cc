#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sweep/digest.hh"
#include "sweep/serialize.hh"

namespace smtbench
{

using smt::sweep::Json;

PinnedToOneCpu::PinnedToOneCpu()
{
    ::sched_getaffinity(0, sizeof saved_, &saved_);
    int cpu = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &saved_))
            cpu = c;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
}

PinnedToOneCpu::~PinnedToOneCpu()
{
    ::sched_setaffinity(0, sizeof saved_, &saved_);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
quietestMedian(const std::vector<double> &samples, std::size_t window)
{
    double best = 0.0;
    for (std::size_t at = 0; at == 0 || at + window <= samples.size();
         at += window) {
        const std::vector<double> w(
            samples.begin() + at,
            samples.begin() + std::min(at + window, samples.size()));
        const double p50 = percentile(w, 0.5);
        best = at == 0 ? p50 : std::min(best, p50);
    }
    return best;
}

std::string
statsHash(const smt::SimStats &stats)
{
    return smt::sweep::digestHex(smt::sweep::toJson(stats).dump());
}

double
peakRssMb()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

void
MetricTable::set(const std::string &name, double value,
                 const std::string &unit)
{
    for (auto &item : items_) {
        if (item.first == name) {
            item.second = {value, unit};
            return;
        }
    }
    items_.push_back({name, {value, unit}});
}

std::uint64_t
SpanLog::add(const std::string &name, const std::string &label,
             Clock::time_point start, Clock::time_point end,
             std::uint64_t parent)
{
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.label = label;
    s.startUs =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    s.endUs = std::chrono::duration<double, std::micro>(end - epoch_).count();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(std::uint64_t id, Clock::time_point end)
{
    spans_.at(id - 1).endUs =
        std::chrono::duration<double, std::micro>(end - epoch_).count();
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans_) {
        Json j = Json::object();
        j.set("id", Json(s.id));
        j.set("parent", Json(s.parent));
        j.set("name", Json(s.name));
        j.set("label", Json(s.label));
        j.set("start_us", Json(s.startUs));
        j.set("end_us", Json(s.endUs));
        out << j.dump() << '\n';
    }
    return static_cast<bool>(out);
}

std::vector<PaperReference>
loadPaperReferences(const std::string &path, const std::string &workload)
{
    Json doc;
    if (!Json::readFile(path, doc) || doc.type() != Json::Type::Object
        || !doc.has("references"))
        smt_fatal("smtbench: cannot read paper references from %s",
                  path.c_str());
    std::vector<PaperReference> refs;
    const Json &list = doc.at("references");
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Json &r = list[i];
        const Json &workloads = r.at("workloads");
        bool wanted = false;
        for (std::size_t w = 0; w < workloads.size(); ++w)
            wanted = wanted || workloads[w].asString() == workload;
        if (!wanted)
            continue;
        PaperReference ref;
        ref.label = r.at("label").asString();
        ref.threads = static_cast<unsigned>(r.at("threads").asUInt());
        ref.ipc = r.at("ipc").asDouble();
        ref.source = r.at("source").asString();
        refs.push_back(std::move(ref));
    }
    if (refs.empty())
        smt_fatal("smtbench: %s has no reference for %s", path.c_str(),
                  workload.c_str());
    return refs;
}

double
reportPaperError(const std::vector<PaperReference> &refs,
                 const std::vector<MeasuredPoint> &measured)
{
    double sum = 0.0;
    std::printf("paper error (signed, measured vs printed IPC; the model "
                "is otherwise unvalidated):\n");
    for (const PaperReference &ref : refs) {
        const MeasuredPoint *hit = nullptr;
        for (const MeasuredPoint &m : measured)
            if (m.label == ref.label && m.threads == ref.threads)
                hit = &m;
        if (hit == nullptr)
            smt_fatal("smtbench: no measured point %s @%uT for the paper "
                      "reference", ref.label.c_str(), ref.threads);
        const double err = 100.0 * (hit->ipc / ref.ipc - 1.0);
        sum += std::fabs(err);
        std::printf("  %-14s %uT  measured %6.3f  paper %4.2f  err %+6.1f%%"
                    "  [%s]\n",
                    ref.label.c_str(), ref.threads, hit->ipc, ref.ipc, err,
                    ref.source.c_str());
    }
    return sum / static_cast<double>(refs.size());
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
}

std::uint64_t
sumThreads(const std::array<std::uint64_t, smt::kMaxThreads> &counts)
{
    std::uint64_t total = 0;
    for (std::uint64_t v : counts)
        total += v;
    return total;
}

} // namespace

void
setModelMetrics(MetricTable &m, const smt::SimStats &s)
{
    m.set("sim.ipc", s.ipc(), "inst/cycle");
    m.set("mem.icache.miss_rate", s.icache.missRate(), "ratio");
    m.set("mem.dcache.miss_rate", s.dcache.missRate(), "ratio");
    m.set("mem.l2.miss_rate", s.l2.missRate(), "ratio");
    m.set("mem.l3.miss_rate", s.l3.missRate(), "ratio");
    m.set("branch.cond.mispredict_rate", s.branchMispredictRate(), "ratio");
    m.set("branch.jump.mispredict_rate", s.jumpMispredictRate(), "ratio");
    m.set("core.out_of_regs_frac", s.outOfRegistersFraction(), "ratio");
    m.set("core.int_iq_full_frac", s.intIQFullFraction(), "ratio");
    m.set("core.fp_iq_full_frac", s.fpIQFullFraction(), "ratio");
    m.set("core.wrong_path_fetch_frac", s.wrongPathFetchedFraction(),
          "ratio");
    m.set("core.wrong_path_issue_frac", s.wrongPathIssuedFraction(),
          "ratio");
    m.set("core.commit_per_fetch",
          ratio(s.committedInstructions, s.fetchedInstructions), "ratio");

    const smt::StallStats &st = s.stalls;
    const std::uint64_t slots = st.totalStalledSlots();
    m.set("stall.fetch_icache_frac", ratio(sumThreads(st.fetchIcacheMiss),
                                           slots), "ratio");
    m.set("stall.fetch_front_end_full_frac",
          ratio(sumThreads(st.fetchFrontEndFull), slots), "ratio");
    m.set("stall.fetch_no_target_frac",
          ratio(sumThreads(st.fetchNoTarget), slots), "ratio");
    m.set("stall.fetch_lost_selection_frac",
          ratio(sumThreads(st.fetchLostSelection), slots), "ratio");
    m.set("stall.rename_iq_full_frac",
          ratio(sumThreads(st.renameIQFull), slots), "ratio");
    m.set("stall.rename_no_regs_frac",
          ratio(sumThreads(st.renameNoRegisters), slots), "ratio");
    m.set("stall.issue_operand_wait_frac",
          ratio(sumThreads(st.issueOperandWait), slots), "ratio");
    m.set("stall.issue_fu_busy_frac",
          ratio(sumThreads(st.issueFuBusy), slots), "ratio");
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        // sweep
        {"sweep.pool_util", "ratio"},
        {"sweep.tail_s", "s"},
        {"sweep.run_s.p50", "s"},
        {"sweep.run_s.p95", "s"},
        {"sweep.lookup_us.p50", "us"},
        {"sweep.lookup_us.p99", "us"},
        {"sweep.digest_us.p50", "us"},
        {"sweep.decode_us.p50", "us"},
        {"sweep.store_us.p50", "us"},
        {"sweep.claim_us.p50", "us"},
        {"sweep.expand_ms", "ms"},
        // sim / workload (one rotation run)
        {"run.build_ms.p50", "ms"},
        {"run.warmup_share", "ratio"},
        {"run.warmup_ns_per_cycle", "ns/cycle"},
        {"run.measure_ns_per_cycle", "ns/cycle"},
        {"run.ns_per_cycle.t1", "ns/cycle"},
        {"run.ns_per_cycle.t2", "ns/cycle"},
        {"run.ns_per_cycle.t4", "ns/cycle"},
        {"run.ns_per_cycle.t6", "ns/cycle"},
        {"run.ns_per_cycle.t8", "ns/cycle"},
        // core stages (policy runs inside fetch and issue)
        {"tick.ns_per_cycle", "ns/cycle"},
        {"stage.squash.ns_per_cycle", "ns/cycle"},
        {"stage.commit.ns_per_cycle", "ns/cycle"},
        {"stage.execute.ns_per_cycle", "ns/cycle"},
        {"stage.issue.ns_per_cycle", "ns/cycle"},
        {"stage.rename.ns_per_cycle", "ns/cycle"},
        {"stage.decode.ns_per_cycle", "ns/cycle"},
        {"stage.fetch.ns_per_cycle", "ns/cycle"},
        {"stage.issue.share", "ratio"},
        // modelled mem / branch / core / stall ledger
        {"sim.ipc", "inst/cycle"},
        {"mem.icache.miss_rate", "ratio"},
        {"mem.dcache.miss_rate", "ratio"},
        {"mem.l2.miss_rate", "ratio"},
        {"mem.l3.miss_rate", "ratio"},
        {"branch.cond.mispredict_rate", "ratio"},
        {"branch.jump.mispredict_rate", "ratio"},
        {"core.out_of_regs_frac", "ratio"},
        {"core.int_iq_full_frac", "ratio"},
        {"core.fp_iq_full_frac", "ratio"},
        {"core.wrong_path_fetch_frac", "ratio"},
        {"core.wrong_path_issue_frac", "ratio"},
        {"core.commit_per_fetch", "ratio"},
        {"stall.fetch_icache_frac", "ratio"},
        {"stall.fetch_front_end_full_frac", "ratio"},
        {"stall.fetch_no_target_frac", "ratio"},
        {"stall.fetch_lost_selection_frac", "ratio"},
        {"stall.rename_iq_full_frac", "ratio"},
        {"stall.rename_no_regs_frac", "ratio"},
        {"stall.issue_operand_wait_frac", "ratio"},
        {"stall.issue_fu_busy_frac", "ratio"},
        // net / store_service
        {"net.requests_per_point", "count"},
        {"net.connections", "count"},
        {"store.server_us.p50", "us"},
        {"store.server_us.p99", "us"},
        {"net.client_overhead_us.p50", "us"},
        {"lz.ratio", "ratio"},
        {"net.bytes_out_per_point", "B"},
        // obs: tracing cost and attribution closure
        {"obs.trace_overhead", "ratio"},
        {"obs.unattributed.stage", "ratio"},
        {"obs.unattributed.run", "ratio"},
        {"obs.unattributed.pool", "ratio"},
        {"obs.unattributed.lookup", "ratio"},
    };
    return names;
}

void
completeLayerMetrics(MetricTable &m)
{
    MetricTable ordered;
    for (const auto &[name, unit] : layerMetricNames()) {
        double value = 0.0;
        for (const auto &item : m.items())
            if (item.first == name)
                value = item.second.first;
        ordered.set(name, value, unit);
    }
    m = ordered;
}

void
shufflePoints(std::vector<smt::sweep::SweepPoint> &points, std::uint64_t seed)
{
    smt::Rng rng(seed);
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng.below(i)]);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace smtbench
