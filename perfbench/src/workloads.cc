#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/logging.hh"
#include "common/random.hh"
#include "obs/obs.hh"

using namespace krisp;

namespace perfbench
{

namespace
{

struct NamedWorkload
{
    Workload w;
    const char *name;
};

constexpr NamedWorkload kWorkloads[] = {
    {Workload::ColocClosed, "coloc-closed"},
    {Workload::ClusterOpen, "cluster-open"},
    {Workload::LlmContinuous, "llm-continuous"},
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::optional<Workload>
workloadFromName(const std::string &name)
{
    for (const auto &nw : kWorkloads)
        if (name == nw.name)
            return nw.w;
    return std::nullopt;
}

const char *
workloadName(Workload w)
{
    for (const auto &nw : kWorkloads)
        if (nw.w == w)
            return nw.name;
    return "?";
}

Path
pathOf(Workload w)
{
    switch (w) {
      case Workload::ColocClosed: return Path::Closed;
      case Workload::LlmContinuous: return Path::Llm;
      case Workload::ClusterOpen:
      case Workload::ClusterOpenTraced: return Path::Cluster;
    }
    return Path::Cluster;
}

unsigned
roundRuns(Workload w)
{
    switch (pathOf(w)) {
      case Path::Closed: return 1;
      case Path::Cluster: return 4;
      // LLM requests are ~6x dearer to simulate than the cluster's;
      // six runs give ~1000 requests a round, enough to hold the
      // served rate's Poisson spread across seeds near 4 %.
      case Path::Llm: return 6;
    }
    return 1;
}

std::uint64_t
runSeed(std::uint64_t seed, unsigned i)
{
    return seed + i * 0x9e3779b97f4a7c15ULL;
}

const std::vector<std::string> &
colocModels()
{
    static const std::vector<std::string> models = {
        "densenet201", "resnet152", "shufflenet", "squeezenet"};
    return models;
}

const std::vector<std::string> &
clusterModels()
{
    static const std::vector<std::string> models = {
        "squeezenet", "alexnet", "vgg19"};
    return models;
}

ServerConfig
colocConfig(std::uint64_t seed, bool empty)
{
    ServerConfig cfg;
    // The seed deals the four models to the four workers; the order
    // changes stream and queue ids and with them every tie-break in
    // the allocator and the device, but not the work.
    Rng rng(seed);
    cfg.workerModels = colocModels();
    for (std::size_t i = cfg.workerModels.size() - 1; i > 0; --i)
        std::swap(cfg.workerModels[i],
                  cfg.workerModels[rng() % (i + 1)]);
    cfg.batch = 32;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.enforcement = EnforcementMode::Native;
    cfg.reconfig = ReconfigPolicy::Always;
    cfg.warmupRequests = empty ? 0 : 3;
    cfg.measuredRequests = empty ? 0 : 20;
    return cfg;
}

ClusterConfig
clusterConfig(std::uint64_t seed, bool empty)
{
    ClusterConfig cfg;
    cfg.numShards = 16;
    cfg.routing = RoutingPolicy::LeastOutstanding;
    cfg.models = clusterModels();
    cfg.workersPerShard = 2;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.enforcement = EnforcementMode::Emulated;
    cfg.reconfig = ReconfigPolicy::Always;
    cfg.arrivalRatePerSec = kClusterRatePerShard * cfg.numShards;
    cfg.maxBatch = 8;
    cfg.batchTimeoutNs = ticksFromMs(2.0);
    cfg.warmupNs = empty ? 0 : ticksFromMs(50.0);
    cfg.measureNs = empty ? 0 : ticksFromMs(100.0);
    cfg.seed = seed;
    cfg.engine.engine = ClusterEngine::Sequential;
    cfg.engine.workers = 1;
    cfg.engine.windowNs = 0;
    return cfg;
}

LlmEngineConfig
llmConfig(std::uint64_t seed, bool empty)
{
    LlmEngineConfig cfg;
    cfg.model = "llm-small";
    cfg.numShards = 2;
    cfg.scheduler = LlmScheduler::Continuous;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.enforcement = EnforcementMode::Native;
    cfg.reconfig = ReconfigPolicy::Always;
    cfg.arrivalRatePerSec = kLlmRatePerShard * cfg.numShards;
    cfg.warmupNs = empty ? 0 : ticksFromMs(200.0);
    // The engine needs a non-empty window, and its first request
    // arrives at t = 0: the empty run serves that one request, drawn
    // from a fixed seed so set-up work does not depend on --seed.
    cfg.measureNs = empty ? 1 : ticksFromSec(1.5);
    cfg.seed = empty ? 1 : seed;
    return cfg;
}

RunOutcome
runOnce(Workload w, std::uint64_t seed, bool empty,
        const std::string &outDir, ObsContext *obs, const ClusterConfig *cluster, bool keepTrace)
{
    RunOutcome out;
    switch (pathOf(w)) {
      case Path::Closed: {
        ServerConfig cfg = colocConfig(seed, empty);
        cfg.obs = obs;
        const auto t0 = std::chrono::steady_clock::now();
        ServerResult r = InferenceServer(cfg).run();
        out.wallS = secondsSince(t0);
        out.attempted =
            r.completed + r.deadlineMisses + r.failedRequests;
        out.failed = r.deadlineMisses + r.failedRequests +
                     (r.timedOut ? cfg.workerModels.size() : 0);
        out.simRps = r.totalRps;
        out.simTailMs = r.maxP95Ms;
        out.closed = std::move(r);
        break;
      }
      case Path::Cluster: {
        ClusterConfig cfg =
            cluster != nullptr ? *cluster : clusterConfig(seed, empty);
        std::unique_ptr<ObsContext> own;
        std::string trace_path;
        if (w == Workload::ClusterOpenTraced) {
            if (obs == nullptr) {
                own = std::make_unique<ObsContext>();
                obs = own.get();
            }
            obs->trace.setEnabled(true);
            obs->trace.setSample(traceSampleEvery);
            trace_path = outDir + "/cluster-open-traced.trace.json";
        }
        cfg.obs = obs;
        const auto t0 = std::chrono::steady_clock::now();
        if (!trace_path.empty())
            fatal_if(!obs->trace.openStream(trace_path),
                     "cannot open ", trace_path);
        ClusterResult r = ClusterServer(cfg).run();
        if (!trace_path.empty())
            obs->trace.closeStream();
        out.wallS = secondsSince(t0);
        if (!trace_path.empty()) {
            std::error_code ec;
            out.traceBytes = std::filesystem::file_size(trace_path, ec);
            if (keepTrace)
                out.tracePath = trace_path;
            else
                std::filesystem::remove(trace_path, ec);
        }
        const ResilienceStats &res = r.resilience;
        out.attempted = res.injected;
        out.failed = res.shed + res.dropped + res.failed + res.inFlight;
        out.simRps = r.achievedRps;
        out.simTailMs = r.p99Ms;
        out.cluster = std::move(r);
        break;
      }
      case Path::Llm: {
        LlmEngineConfig cfg = llmConfig(seed, empty);
        cfg.obs = obs;
        const auto t0 = std::chrono::steady_clock::now();
        LlmResult r = LlmEngine(cfg).run();
        out.wallS = secondsSince(t0);
        out.attempted = r.arrivals;
        out.failed = r.arrivals - std::min(r.arrivals, r.served);
        out.simRps = r.servedRps;
        out.simTailMs = r.itlP99Ms;
        out.llm = std::move(r);
        break;
      }
    }
    return out;
}

} // namespace perfbench
