#include "sweep/serialize.hh"

#include "common/histogram.hh"

namespace smt::sweep
{

namespace
{

// From-JSON helpers must degrade, never abort: a malformed or stale
// cache entry (e.g. written before a stats field was added) has to
// read as a cache miss, not kill the sweep.
bool
getUInt(const Json &obj, const char *key, std::uint64_t &out)
{
    if (obj.type() != Json::Type::Object || !obj.has(key)
        || obj.at(key).type() != Json::Type::UInt)
        return false;
    out = obj.at(key).asUInt();
    return true;
}

Json
toJson(const CacheParams &cp)
{
    Json j = Json::object();
    j.set("sizeBytes", Json(cp.sizeBytes));
    j.set("assoc", Json(cp.assoc));
    j.set("lineBytes", Json(cp.lineBytes));
    j.set("banks", Json(cp.banks));
    j.set("accessesPerCycle", Json(cp.accessesPerCycle));
    j.set("cyclesPerAccess", Json(cp.cyclesPerAccess));
    j.set("transferCycles", Json(cp.transferCycles));
    j.set("fillCycles", Json(cp.fillCycles));
    j.set("latencyToNext", Json(cp.latencyToNext));
    j.set("mshrs", Json(cp.mshrs));
    return j;
}

Json
toJson(const CacheStats &cs)
{
    Json j = Json::object();
    j.set("accesses", Json(cs.accesses));
    j.set("misses", Json(cs.misses));
    j.set("bankConflicts", Json(cs.bankConflicts));
    j.set("writebacks", Json(cs.writebacks));
    j.set("mshrMerges", Json(cs.mshrMerges));
    return j;
}

bool
cacheStatsFromJson(const Json &j, CacheStats &out)
{
    return getUInt(j, "accesses", out.accesses)
           && getUInt(j, "misses", out.misses)
           && getUInt(j, "bankConflicts", out.bankConflicts)
           && getUInt(j, "writebacks", out.writebacks)
           && getUInt(j, "mshrMerges", out.mshrMerges);
}

Json
toJson(const TlbStats &ts)
{
    Json j = Json::object();
    j.set("accesses", Json(ts.accesses));
    j.set("misses", Json(ts.misses));
    return j;
}

bool
tlbStatsFromJson(const Json &j, TlbStats &out)
{
    return getUInt(j, "accesses", out.accesses)
           && getUInt(j, "misses", out.misses);
}

Json
toJson(const Histogram &h)
{
    Json j = Json::object();
    Json counts = Json::array();
    for (std::size_t b = 0; b < h.buckets(); ++b)
        counts.push(Json(h.bucket(b)));
    j.set("counts", std::move(counts));
    j.set("sum", Json(h.sum()));
    j.set("samples", Json(h.samples()));
    return j;
}

bool
histogramFromJson(const Json &j, Histogram &out)
{
    if (j.type() != Json::Type::Object || !j.has("counts"))
        return false;
    const Json &counts = j.at("counts");
    if (counts.type() != Json::Type::Array || counts.size() == 0)
        return false;
    std::vector<std::uint64_t> buckets(counts.size());
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b].type() != Json::Type::UInt)
            return false;
        buckets[b] = counts[b].asUInt();
    }
    std::uint64_t sum = 0;
    std::uint64_t samples = 0;
    if (!getUInt(j, "sum", sum) || !getUInt(j, "samples", samples))
        return false;
    out.restore(std::move(buckets), sum, samples);
    return true;
}

Json
perThreadJson(const std::array<std::uint64_t, kMaxThreads> &counts)
{
    Json arr = Json::array();
    for (unsigned t = 0; t < kMaxThreads; ++t)
        arr.push(Json(counts[t]));
    return arr;
}

bool
perThreadFromJson(const Json &obj, const char *key,
                  std::array<std::uint64_t, kMaxThreads> &out)
{
    if (!obj.has(key))
        return false;
    const Json &arr = obj.at(key);
    if (arr.type() != Json::Type::Array || arr.size() != kMaxThreads)
        return false;
    for (unsigned t = 0; t < kMaxThreads; ++t) {
        if (arr[t].type() != Json::Type::UInt)
            return false;
        out[t] = arr[t].asUInt();
    }
    return true;
}

Json
toJson(const StallStats &s)
{
    Json j = Json::object();
    j.set("fetchActive", perThreadJson(s.fetchActive));
    j.set("fetchIcacheMiss", perThreadJson(s.fetchIcacheMiss));
    j.set("fetchFrontEndFull", perThreadJson(s.fetchFrontEndFull));
    j.set("fetchNoTarget", perThreadJson(s.fetchNoTarget));
    j.set("fetchLostSelection", perThreadJson(s.fetchLostSelection));
    j.set("renameIQFull", perThreadJson(s.renameIQFull));
    j.set("renameNoRegisters", perThreadJson(s.renameNoRegisters));
    j.set("issueOperandWait", perThreadJson(s.issueOperandWait));
    j.set("issueFuBusy", perThreadJson(s.issueFuBusy));
    j.set("issueNoCandidatesCycles", Json(s.issueNoCandidatesCycles));
    return j;
}

bool
stallStatsFromJson(const Json &j, StallStats &out)
{
    if (j.type() != Json::Type::Object)
        return false;
    return perThreadFromJson(j, "fetchActive", out.fetchActive)
           && perThreadFromJson(j, "fetchIcacheMiss", out.fetchIcacheMiss)
           && perThreadFromJson(j, "fetchFrontEndFull",
                                out.fetchFrontEndFull)
           && perThreadFromJson(j, "fetchNoTarget", out.fetchNoTarget)
           && perThreadFromJson(j, "fetchLostSelection",
                                out.fetchLostSelection)
           && perThreadFromJson(j, "renameIQFull", out.renameIQFull)
           && perThreadFromJson(j, "renameNoRegisters",
                                out.renameNoRegisters)
           && perThreadFromJson(j, "issueOperandWait",
                                out.issueOperandWait)
           && perThreadFromJson(j, "issueFuBusy", out.issueFuBusy)
           && getUInt(j, "issueNoCandidatesCycles",
                      out.issueNoCandidatesCycles);
}

} // namespace

Json
toJson(const SmtConfig &cfg)
{
    Json j = Json::object();

    j.set("numThreads", Json(cfg.numThreads));
    j.set("fetchWidth", Json(cfg.fetchWidth));
    j.set("fetchThreads", Json(cfg.fetchThreads));
    j.set("fetchPerThread", Json(cfg.fetchPerThread));
    j.set("decodeWidth", Json(cfg.decodeWidth));
    j.set("renameWidth", Json(cfg.renameWidth));
    j.set("commitWidth", Json(cfg.commitWidth));

    j.set("fetchPolicy", Json(toString(cfg.fetchPolicy)));
    j.set("issuePolicy", Json(toString(cfg.issuePolicy)));
    j.set("speculation", Json(toString(cfg.speculation)));
    j.set("itagEarlyLookup", Json(cfg.itagEarlyLookup));

    j.set("intQueueEntries", Json(cfg.intQueueEntries));
    j.set("fpQueueEntries", Json(cfg.fpQueueEntries));
    j.set("iqSearchWindow", Json(cfg.iqSearchWindow));

    j.set("intUnits", Json(cfg.intUnits));
    j.set("loadStoreUnits", Json(cfg.loadStoreUnits));
    j.set("fpUnits", Json(cfg.fpUnits));
    j.set("infiniteFunctionalUnits", Json(cfg.infiniteFunctionalUnits));

    j.set("excessRegisters", Json(cfg.excessRegisters));
    j.set("totalPhysRegisters", Json(cfg.totalPhysRegisters));
    j.set("longRegisterPipeline", Json(cfg.longRegisterPipeline));

    j.set("btbEntries", Json(cfg.btbEntries));
    j.set("btbAssoc", Json(cfg.btbAssoc));
    j.set("btbThreadIds", Json(cfg.btbThreadIds));
    j.set("phtEntries", Json(cfg.phtEntries));
    j.set("phtHistoryBits", Json(cfg.phtHistoryBits));
    j.set("rasEntries", Json(cfg.rasEntries));
    j.set("perfectBranchPrediction", Json(cfg.perfectBranchPrediction));

    j.set("icache", toJson(cfg.icache));
    j.set("dcache", toJson(cfg.dcache));
    j.set("l2", toJson(cfg.l2));
    j.set("l3", toJson(cfg.l3));
    j.set("infiniteCacheBandwidth", Json(cfg.infiniteCacheBandwidth));

    j.set("itlbEntries", Json(cfg.itlbEntries));
    j.set("dtlbEntries", Json(cfg.dtlbEntries));
    j.set("pageBytes", Json(cfg.pageBytes));
    j.set("disambiguationBits", Json(cfg.disambiguationBits));

    j.set("seed", Json(cfg.seed));
    return j;
}

Json
toJson(const MeasureOptions &opts)
{
    Json j = Json::object();
    j.set("cyclesPerRun", Json(opts.cyclesPerRun));
    j.set("warmupCycles", Json(opts.warmupCycles));
    j.set("runs", Json(opts.runs));
    return j;
}

Json
toJson(const SimStats &stats)
{
    Json j = Json::object();
    j.set("cycles", Json(stats.cycles));
    j.set("committedInstructions", Json(stats.committedInstructions));
    Json per_thread = Json::array();
    for (unsigned t = 0; t < kMaxThreads; ++t)
        per_thread.push(Json(stats.committedPerThread[t]));
    j.set("committedPerThread", std::move(per_thread));

    j.set("fetchedInstructions", Json(stats.fetchedInstructions));
    j.set("fetchedWrongPath", Json(stats.fetchedWrongPath));
    j.set("fetchCyclesIdle", Json(stats.fetchCyclesIdle));
    j.set("fetchBlockedIQFull", Json(stats.fetchBlockedIQFull));

    j.set("issuedInstructions", Json(stats.issuedInstructions));
    j.set("issuedWrongPath", Json(stats.issuedWrongPath));
    j.set("optimisticSquashes", Json(stats.optimisticSquashes));

    j.set("intIQFullCycles", Json(stats.intIQFullCycles));
    j.set("fpIQFullCycles", Json(stats.fpIQFullCycles));
    j.set("combinedQueuePopulation",
          toJson(stats.combinedQueuePopulation));

    j.set("outOfRegistersCycles", Json(stats.outOfRegistersCycles));
    j.set("stalls", toJson(stats.stalls));

    j.set("condBranches", Json(stats.condBranches));
    j.set("condBranchMispredicts", Json(stats.condBranchMispredicts));
    j.set("jumps", Json(stats.jumps));
    j.set("jumpMispredicts", Json(stats.jumpMispredicts));
    j.set("misfetches", Json(stats.misfetches));

    j.set("icache", toJson(stats.icache));
    j.set("dcache", toJson(stats.dcache));
    j.set("l2", toJson(stats.l2));
    j.set("l3", toJson(stats.l3));
    j.set("itlb", toJson(stats.itlb));
    j.set("dtlb", toJson(stats.dtlb));
    return j;
}

bool
simStatsFromJson(const Json &j, SimStats &out)
{
    if (j.type() != Json::Type::Object)
        return false;

    SimStats stats;
    if (!getUInt(j, "cycles", stats.cycles)
        || !getUInt(j, "committedInstructions",
                    stats.committedInstructions))
        return false;
    if (!j.has("committedPerThread"))
        return false;
    const Json &per_thread = j.at("committedPerThread");
    if (per_thread.type() != Json::Type::Array
        || per_thread.size() != kMaxThreads)
        return false;
    for (unsigned t = 0; t < kMaxThreads; ++t) {
        if (per_thread[t].type() != Json::Type::UInt)
            return false;
        stats.committedPerThread[t] = per_thread[t].asUInt();
    }

    if (!getUInt(j, "fetchedInstructions", stats.fetchedInstructions)
        || !getUInt(j, "fetchedWrongPath", stats.fetchedWrongPath)
        || !getUInt(j, "fetchCyclesIdle", stats.fetchCyclesIdle)
        || !getUInt(j, "fetchBlockedIQFull", stats.fetchBlockedIQFull)
        || !getUInt(j, "issuedInstructions", stats.issuedInstructions)
        || !getUInt(j, "issuedWrongPath", stats.issuedWrongPath)
        || !getUInt(j, "optimisticSquashes", stats.optimisticSquashes)
        || !getUInt(j, "intIQFullCycles", stats.intIQFullCycles)
        || !getUInt(j, "fpIQFullCycles", stats.fpIQFullCycles)
        || !getUInt(j, "outOfRegistersCycles", stats.outOfRegistersCycles)
        || !getUInt(j, "condBranches", stats.condBranches)
        || !getUInt(j, "condBranchMispredicts",
                    stats.condBranchMispredicts)
        || !getUInt(j, "jumps", stats.jumps)
        || !getUInt(j, "jumpMispredicts", stats.jumpMispredicts)
        || !getUInt(j, "misfetches", stats.misfetches))
        return false;

    // Required like every other field: an entry written before the
    // stall counters existed degrades to a cache miss.
    if (!j.has("stalls") || !stallStatsFromJson(j.at("stalls"),
                                                stats.stalls))
        return false;

    if (!j.has("combinedQueuePopulation")
        || !histogramFromJson(j.at("combinedQueuePopulation"),
                              stats.combinedQueuePopulation))
        return false;

    for (const char *key : {"icache", "dcache", "l2", "l3", "itlb",
                            "dtlb"})
        if (!j.has(key))
            return false;
    if (!cacheStatsFromJson(j.at("icache"), stats.icache)
        || !cacheStatsFromJson(j.at("dcache"), stats.dcache)
        || !cacheStatsFromJson(j.at("l2"), stats.l2)
        || !cacheStatsFromJson(j.at("l3"), stats.l3)
        || !tlbStatsFromJson(j.at("itlb"), stats.itlb)
        || !tlbStatsFromJson(j.at("dtlb"), stats.dtlb))
        return false;

    out = std::move(stats);
    return true;
}

} // namespace smt::sweep
