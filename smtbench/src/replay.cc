/**
 * @file
 * The replay-remote workload: every paper grid is written at a tiny
 * budget to a loopback, token-protected smtstore (x-smt-lz on), then
 * replayed through sweep::runPoints pass after pass. No cycles are
 * simulated in the timed region; the work is the sweep digest, the
 * remote store client, the HTTP layer and the store service. One client
 * thread, one keep-alive connection per pass.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "net/http_client.hh"
#include "obs/trace.hh"
#include "sweep/digest.hh"
#include "sweep/experiments.hh"
#include "sweep/remote_store.hh"
#include "sweep/runner.hh"
#include "sweep/serialize.hh"

extern char **environ;

namespace smtbench
{

namespace
{

using smt::sweep::Json;
using smt::sweep::SweepPoint;

/** The set-up budget: enough cycles for non-trivial stats, small enough
 *  that writing all grids stays around a second on four workers. */
smt::MeasureOptions
tinyBudget()
{
    smt::MeasureOptions m;
    m.warmupCycles = 500;
    m.cyclesPerRun = 1000;
    m.runs = 8;
    m.parallel = true;
    return m;
}

/** setup_s is the median of this many set-ups (server start + writes). */
constexpr unsigned kSetups = 3;

/** The traced run replays at most this many passes: enough lookups for
 *  stable percentiles, few enough spans to keep in memory. */
constexpr unsigned kMaxTracedPasses = 60;

/** A child smtstore on an ephemeral loopback port, on the replay's CPU;
 *  stopped (SIGTERM, then SIGKILL) and reaped by the destructor. */
class StoreServer
{
  public:
    StoreServer(const Options &opts, const std::string &dir,
                const std::string &token_file,
                const std::string &access_log)
    {
        const std::string log = dir + "/server.log";
        std::vector<std::string> args = {opts.smtstorePath, "--dir",
                                         dir + "/store", "--port", "0",
                                         "--token-file", token_file};
        if (!access_log.empty()) {
            args.push_back("--access-log");
            args.push_back(access_log);
        }
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                         log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                         STDERR_FILENO);
        int rc = 0;
        {
            const PinnedToOneCpu pin; // inherited by the child.
            rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                             environ);
        }
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            smt_fatal("smtbench: cannot start %s", argv[0]);

        // The server prints its URL once it listens.
        const auto deadline = Clock::now() + std::chrono::seconds(20);
        while (url_.empty() && Clock::now() < deadline) {
            std::ifstream in(log);
            std::string line;
            while (std::getline(in, line)) {
                const auto at = line.find("http://");
                if (at != std::string::npos)
                    url_ = line.substr(at, line.find(' ', at) - at);
            }
            if (url_.empty())
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (url_.empty())
            smt_fatal("smtbench: smtstore did not start (see %s)",
                      log.c_str());
    }

    ~StoreServer()
    {
        ::kill(pid_, SIGTERM);
        for (int i = 0; i < 500; ++i) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }

    StoreServer(const StoreServer &) = delete;
    StoreServer &operator=(const StoreServer &) = delete;

    const std::string &url() const { return url_; }

    /** The server's peak resident set so far, MiB (VmHWM). */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        return 0.0;
    }

  private:
    pid_t pid_ = -1;
    std::string url_;
};

/** One set-up: a started server holding every grid's entries. */
struct Loaded
{
    std::string dir;
    std::string token;
    std::unique_ptr<StoreServer> server;
    std::map<std::string, std::string> hashByDigest;
    std::vector<SweepPoint> points;
    std::vector<smt::SimStats> written; ///< per point, grid order.
    double setupSeconds = 0.0;
    double expandMs = 0.0;
    std::uint64_t failed = 0;
};

std::vector<SweepPoint>
allPaperGrids(const smt::MeasureOptions &budget)
{
    std::vector<SweepPoint> points;
    for (const smt::sweep::NamedExperiment &e :
         smt::sweep::allExperiments()) {
        if (e.spec.name == "smoke")
            continue; // not a paper grid.
        for (SweepPoint &p : e.spec.expand(budget))
            points.push_back(std::move(p));
    }
    return points;
}

Loaded
setUp(const Options &opts, unsigned index)
{
    const auto t0 = Clock::now();
    Loaded l;
    l.dir = opts.outDir + "/replay-" + std::to_string(index);
    removeTree(l.dir);
    std::filesystem::create_directories(l.dir);
    l.token = "smtbench-" + std::to_string(opts.seed) + "-" +
              std::to_string(::getpid());
    const std::string token_file = l.dir + "/token";
    std::ofstream(token_file) << l.token << '\n';
    l.server = std::make_unique<StoreServer>(
        opts, l.dir, token_file, opts.trace ? l.dir + "/access.jsonl" : "");
    const auto e0 = Clock::now();
    l.points = allPaperGrids(tinyBudget());
    shufflePoints(l.points, opts.seed);
    l.expandMs = 1e3 * seconds(e0, Clock::now());

    smt::net::Url url;
    if (!smt::net::parseUrl(l.server->url(), url))
        smt_fatal("smtbench: bad store URL %s", l.server->url().c_str());
    const smt::sweep::RemoteResultStore probe(url, l.token);
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (!probe.ping()) {
        if (Clock::now() > deadline)
            smt_fatal("smtbench: %s does not answer", l.server->url().c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    smt::sweep::RunnerOptions ropts;
    ropts.measure = tinyBudget();
    ropts.cacheDir = l.server->url();
    ropts.storeToken = l.token;
    ropts.jobs = opts.jobs;
    for (smt::sweep::PointResult &r :
         smt::sweep::runPoints(l.points, ropts)) {
        // A fresh store: nothing may already be there.
        l.failed += r.cached ? 1 : 0;
        l.hashByDigest[r.digest] = statsHash(r.data.stats);
        l.written.push_back(std::move(r.data.stats));
    }
    l.setupSeconds = seconds(t0, Clock::now());
    return l;
}

/** The counters of a /v1/stats snapshot (fatal when unreachable). */
std::map<std::string, double>
serverCounters(const smt::sweep::RemoteResultStore &store)
{
    const std::optional<Json> doc = store.stats();
    if (!doc.has_value() || !doc->has("counters"))
        smt_fatal("smtbench: GET /v1/stats failed");
    std::map<std::string, double> out;
    for (const auto &[name, value] : doc->at("counters").items())
        out[name] = value.asDouble();
    return out;
}

/** One untraced pass: runPoints over every grid point, all hits. */
struct Pass
{
    double wallSeconds = 0.0;
    std::uint64_t failed = 0;
    std::uint64_t committed = 0;
};

Pass
replayPass(const Loaded &l, const Options &opts,
           std::vector<double> &lookup_us)
{
    std::vector<Clock::time_point> settled;
    settled.reserve(l.points.size());
    smt::sweep::RunnerOptions ropts;
    ropts.measure = tinyBudget();
    ropts.cacheDir = l.server->url();
    ropts.storeToken = l.token;
    ropts.jobs = opts.jobs;
    ropts.onProgress = [&settled](const smt::sweep::RunProgress &) {
        settled.push_back(Clock::now());
    };
    const auto t0 = Clock::now();
    const std::vector<smt::sweep::PointResult> results =
        smt::sweep::runPoints(l.points, ropts);
    Pass pass;
    pass.wallSeconds = seconds(t0, Clock::now());
    // Per-point latency is the gap between successive settled points;
    // the first gap also opens the store and is left out.
    for (std::size_t i = 1; i < settled.size(); ++i)
        lookup_us.push_back(
            std::chrono::duration<double, std::micro>(settled[i] -
                                                      settled[i - 1])
                .count());
    for (const smt::sweep::PointResult &r : results) {
        const auto it = l.hashByDigest.find(r.digest);
        if (!r.cached || it == l.hashByDigest.end()
            || statsHash(r.data.stats) != it->second)
            ++pass.failed;
        pass.committed += r.data.stats.committedInstructions;
    }
    return pass;
}

/** Raw entry bodies of every stored digest, fetched once outside the
 *  timed loop: identity bytes (decode timing) and x-smt-lz size. */
struct RawEntries
{
    std::map<std::string, std::string> identity;
    std::map<std::string, std::size_t> lzBytes;
};

RawEntries
fetchRawEntries(const Loaded &l, const smt::net::Url &url)
{
    RawEntries raw;
    smt::net::HttpClient client(url.host, url.port);
    for (const auto &[digest, hash] : l.hashByDigest) {
        for (bool lz : {false, true}) {
            smt::net::HttpRequest req;
            req.target = "/v1/entries/" + digest;
            req.headers.set("Authorization", "Bearer " + l.token);
            if (lz)
                req.headers.set("Accept-Encoding", "x-smt-lz");
            const std::optional<smt::net::HttpResponse> resp =
                client.request(req);
            if (!resp.has_value() || !resp->ok())
                smt_fatal("smtbench: cannot fetch entry %s",
                          digest.c_str());
            if (lz)
                raw.lzBytes[digest] = resp->body.size();
            else
                raw.identity[digest] = resp->body;
        }
    }
    return raw;
}

/** Server handler latencies (µs) of this trace id's entry GETs, in
 *  request order, from the server's access log. */
std::vector<double>
serverLatencies(const std::string &access_log, const std::string &trace_id)
{
    std::vector<double> us;
    std::ifstream in(access_log);
    std::string line;
    while (std::getline(in, line)) {
        Json rec;
        if (!Json::parse(line, rec) || rec.type() != Json::Type::Object)
            continue;
        if (rec.at("trace").asString() == trace_id
            && rec.at("route").asString() == "entries"
            && rec.at("method").asString() == "GET")
            us.push_back(rec.at("latency_us").asDouble());
    }
    return us;
}

/** The traced passes and their per-layer metrics. */
std::uint64_t
tracedReplay(const Loaded &l, const Options &opts, double untraced_pass,
             double budget_seconds, MetricTable &m, std::uint64_t &attempted)
{
    smt::net::Url url;
    smt::net::parseUrl(l.server->url(), url);
    const RawEntries raw = fetchRawEntries(l, url);
    const std::string trace_id =
        "smtbench-trace-" + std::to_string(::getpid());

    const smt::sweep::RemoteResultStore admin(url, l.token);
    const auto s0 = serverCounters(admin);
    const auto s1 = serverCounters(admin);

    const auto epoch = Clock::now();
    SpanLog spans(epoch);
    std::vector<double> digest_us, lookup_us, decode_us, pass_s;
    double identity_bytes = 0, lz_bytes = 0;
    std::uint64_t failed = 0, lookups = 0;
    unsigned passes = 0;
    while (passes < kMaxTracedPasses
           && (passes == 0 || seconds(epoch, Clock::now()) < budget_seconds)) {
        const auto p0 = Clock::now();
        const auto store = smt::sweep::openStore(l.server->url(), l.token);
        store->setTraceContext(trace_id);
        const auto opened = Clock::now();
        const std::uint64_t pass_span = spans.add("pass", "", p0, p0);
        spans.add("open", "", p0, opened, pass_span);
        for (const SweepPoint &point : l.points) {
            const std::string label =
                point.label + "@" + std::to_string(point.threads);
            const auto t0 = Clock::now();
            const std::string digest =
                smt::sweep::measurementDigest(point.config, point.options);
            const auto t1 = Clock::now();
            const std::optional<smt::SimStats> hit = store->lookup(digest);
            const auto t2 = Clock::now();
            // The decode a lookup performs, repeated on the identity
            // bytes so it can be timed apart from the round trip.
            Json entry;
            smt::SimStats decoded;
            const auto body = raw.identity.find(digest);
            const bool ok_decode =
                body != raw.identity.end()
                && Json::parse(body->second, entry)
                && smt::sweep::simStatsFromJson(entry.at("stats"), decoded);
            const auto t3 = Clock::now();
            spans.add("digest", label, t0, t1, pass_span);
            spans.add("lookup", label, t1, t2, pass_span);
            spans.add("decode", label, t2, t3, pass_span);
            digest_us.push_back(1e6 * seconds(t0, t1));
            lookup_us.push_back(1e6 * seconds(t1, t2));
            decode_us.push_back(1e6 * seconds(t2, t3));
            const auto want = l.hashByDigest.find(digest);
            if (!hit.has_value() || !ok_decode
                || want == l.hashByDigest.end()
                || statsHash(*hit) != want->second
                || statsHash(decoded) != want->second)
                ++failed;
            ++lookups;
            if (body != raw.identity.end()) {
                identity_bytes += static_cast<double>(body->second.size());
                lz_bytes += static_cast<double>(raw.lzBytes.at(digest));
            }
        }
        spans.close(pass_span, Clock::now());
        pass_s.push_back(seconds(p0, Clock::now()));
        ++passes;
    }
    attempted += lookups;
    const auto s2 = serverCounters(admin);
    const auto delta = [&](const std::string &name) {
        const auto get = [&](const std::map<std::string, double> &s) {
            const auto it = s.find(name);
            return it == s.end() ? 0.0 : it->second;
        };
        // s1 - s0 is what one /v1/stats request itself adds.
        return (get(s2) - get(s1)) - (get(s1) - get(s0));
    };

    const std::vector<double> server_us =
        serverLatencies(l.dir + "/access.jsonl", trace_id);
    std::vector<double> overhead_us;
    double client_sum = 0, server_sum = 0;
    if (server_us.size() != lookup_us.size()) {
        std::printf("CHECK FAILED: %zu server log records for %zu "
                    "lookups\n", server_us.size(), lookup_us.size());
        ++failed;
    } else {
        for (std::size_t i = 0; i < lookup_us.size(); ++i) {
            overhead_us.push_back(lookup_us[i] - server_us[i]);
            client_sum += lookup_us[i];
            server_sum += server_us[i];
        }
    }

    const double lk = static_cast<double>(lookups);
    const double traced_pass = percentile(pass_s, 0.0);
    m.set("sweep.lookup_us.p50", percentile(lookup_us, 0.5), "us");
    m.set("sweep.lookup_us.p99", percentile(lookup_us, 0.99), "us");
    m.set("sweep.digest_us.p50", percentile(digest_us, 0.5), "us");
    m.set("sweep.decode_us.p50", percentile(decode_us, 0.5), "us");
    m.set("sweep.expand_ms", l.expandMs, "ms");
    m.set("net.requests_per_point", delta("net.requests") / lk, "count");
    m.set("net.connections", delta("net.connections") / passes, "count");
    m.set("store.server_us.p50", percentile(server_us, 0.5), "us");
    m.set("store.server_us.p99", percentile(server_us, 0.99), "us");
    m.set("net.client_overhead_us.p50", percentile(overhead_us, 0.5), "us");
    m.set("lz.ratio", lz_bytes > 0 ? identity_bytes / lz_bytes : 0.0,
          "ratio");
    m.set("net.bytes_out_per_point", delta("net.bytes_out") / lk, "B");
    m.set("obs.trace_overhead", traced_pass / untraced_pass, "ratio");
    const double unattributed =
        client_sum > 0 ? 1.0 - server_sum / client_sum : 0.0;
    m.set("obs.unattributed.lookup", unattributed, "ratio");

    std::printf("traced: %u passes, %llu lookups, %.4f s/pass (untraced "
                "%.4f s)\n",
                passes, static_cast<unsigned long long>(lookups),
                traced_pass, untraced_pass);
    std::printf("attribution closure (unattributed share at each "
                "boundary):\n"
                "  stage / run / pool boundaries         n/a (no cycles "
                "simulated)\n"
                "  client lookup vs server handler       %6.2f%%\n"
                "  obs.trace_overhead                    %.3fx\n",
                100.0 * unattributed, traced_pass / untraced_pass);
    const std::string span_path = opts.outDir + "/spans-replay-remote-seed" +
                                  std::to_string(opts.seed) + ".jsonl";
    if (!spans.write(span_path))
        smt_fatal("smtbench: cannot write %s", span_path.c_str());
    std::printf("spans: %zu written to %s\n", spans.size(),
                span_path.c_str());
    return failed;
}

} // namespace

WorkloadResult
runReplayWorkload(const Options &opts)
{
    WorkloadResult out;
    std::vector<double> setup_s;
    Loaded live;
    for (unsigned k = 0; k < kSetups; ++k) {
        Loaded l = setUp(opts, k);
        setup_s.push_back(l.setupSeconds);
        out.failed += l.failed;
        if (k + 1 < kSetups) {
            l.server.reset();
            removeTree(l.dir);
        } else {
            live = std::move(l);
        }
    }
    char budget[256];
    std::snprintf(budget, sizeof budget,
                  "%llu warmup + %llu measured cycles x %u runs written in "
                  "set-up; %zu points, %zu unique digests; loopback "
                  "smtstore, bearer token, x-smt-lz; 1 client thread",
                  static_cast<unsigned long long>(tinyBudget().warmupCycles),
                  static_cast<unsigned long long>(tinyBudget().cyclesPerRun),
                  tinyBudget().runs, live.points.size(),
                  live.hashByDigest.size());
    out.budget = budget;

    const PinnedToOneCpu pin; // beside the server; the pool stays wide.
    // Untraced passes (all of the run, or half of it before the traced
    // passes).
    const double untraced_budget =
        opts.trace ? opts.seconds / 2 : opts.seconds;
    std::vector<double> walls, pps, kips, lookup_us;
    const auto t0 = Clock::now();
    while (walls.empty() || seconds(t0, Clock::now()) < untraced_budget) {
        const Pass pass = replayPass(live, opts, lookup_us);
        out.attempted += live.points.size();
        out.failed += pass.failed;
        walls.push_back(pass.wallSeconds);
        pps.push_back(live.points.size() / pass.wallSeconds);
        kips.push_back(pass.committed / pass.wallSeconds / 1e3);
    }
    std::printf("untraced: %zu passes, %zu lookup samples; pass wall "
                "min %.5f p10 %.5f median %.5f s\n", walls.size(),
                lookup_us.size(), percentile(walls, 0.0),
                percentile(walls, 0.1), median(walls));

    if (!opts.trace) {
        std::vector<MeasuredPoint> measured;
        for (std::size_t i = 0; i < live.points.size(); ++i)
            measured.push_back({live.points[i].label, live.points[i].threads,
                                live.written[i].ipc()});
        const double err = reportPaperError(
            loadPaperReferences(opts.referencePath, opts.workload),
            measured);
        out.metrics.set("wall_s", percentile(walls, 0.0), "s");
        out.metrics.set("sim_kips", percentile(kips, 1.0), "kinst/s");
        out.metrics.set("setup_s", median(setup_s), "s");
        out.metrics.set("peak_rss_mb",
                        peakRssMb() + live.server->peakRssMb(), "MB");
        out.metrics.set("paper_ipc_err_pct", err, "%");
        out.metrics.set("points_per_s", percentile(pps, 1.0), "1/s");
        out.metrics.set("lookup_p50_us",
                        quietestMedian(lookup_us, kLatencyWindow), "us");
        out.metrics.set("lookup_p99_us", percentile(lookup_us, 0.99), "us");
    } else {
        out.failed += tracedReplay(live, opts, percentile(walls, 0.0),
                                   opts.seconds / 2, out.metrics,
                                   out.attempted);
        smt::SimStats total;
        for (const smt::SimStats &s : live.written)
            total.add(s);
        setModelMetrics(out.metrics, total);
    }
    live.server.reset();
    removeTree(live.dir);
    return out;
}

} // namespace smtbench
