/**
 * @file
 * The benchmark's four workloads: how each is configured from its
 * seed, and one simulated run of it summarised into the figures the
 * benchmark reports and checks.
 *
 * Every config field that would otherwise default from a KRISP_*
 * environment variable (reconfig policy, engine, engine workers and
 * window, trace enablement and sampling) is set here explicitly; main
 * refuses to start when any KRISP_* variable is set, because a bad
 * value is fatal inside the default member initialisers before the
 * explicit value could overwrite it.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_server.hh"
#include "server/inference_server.hh"
#include "server/llm_engine.hh"

namespace perfbench
{

enum class Workload
{
    ColocClosed,
    ClusterOpen,
    LlmContinuous,
    /** cluster-open with user telemetry on; measured by cluster-open's
     *  traced run, not a workload of its own. */
    ClusterOpenTraced,
};

/** Parses a workload name; std::nullopt if unknown. */
std::optional<Workload> workloadFromName(const std::string &name);
const char *workloadName(Workload w);

/** Which serving entry point a workload drives. */
enum class Path
{
    Closed,  ///< InferenceServer::run
    Cluster, ///< ClusterServer::run
    Llm,     ///< LlmEngine::run
};
Path pathOf(Workload w);

/**
 * Offered load of the open-loop workloads, per shard. The cluster mix
 * saturates near 750 req/s per shard (p99 jumps from 46 ms at 600 to
 * 150 ms at 800 req/s); one llm-small shard keeps up to about 80.
 */
constexpr double kClusterRatePerShard = 500.0;
constexpr double kLlmRatePerShard = 60.0;

/**
 * Simulated runs per round. The open-loop workloads split their
 * measurement into several one-second runs with seed-derived seeds:
 * each run is repeated and timed at its median, which averages a
 * shared host's swings within seconds, while the round's sum and the
 * simulated figures average over the round's seeds. The closed loop
 * keeps one run per round: its Little's-law check needs a window of
 * many densenet201 requests.
 */
unsigned roundRuns(Workload w);
/** Seed of run @p i of a round. */
std::uint64_t runSeed(std::uint64_t seed, unsigned i);

/** Models served by the closed-loop workload, in Table III order. */
const std::vector<std::string> &colocModels();
/** The CNN mix of the cluster workloads. */
const std::vector<std::string> &clusterModels();

/**
 * @param empty  a run with an empty warm-up and measurement window:
 *               the same bring-up (zoo lowering, profiling, perf DB,
 *               allocator) with almost no serving, timed as setup_s.
 */
krisp::ServerConfig colocConfig(std::uint64_t seed, bool empty);
krisp::ClusterConfig clusterConfig(std::uint64_t seed, bool empty);
krisp::LlmEngineConfig llmConfig(std::uint64_t seed, bool empty);

/**
 * The telemetry ClusterOpenTraced switches on, the
 * way a user chasing a p99 would: a metrics registry plus a trace
 * sampled at 1 in traceSampleEvery requests, streamed to a file.
 */
constexpr std::uint64_t traceSampleEvery = 100;

/** One simulated run, summarised. */
struct RunOutcome
{
    double wallS = 0;
    /** Simulated requests attempted / failed (dropped, shed, failed
     *  or unfinished when the run ended). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Completed requests per simulated second. */
    double simRps = 0;
    /** Worst per-worker p95 (closed loop), p99 end to end (cluster),
     *  p99 inter-token latency (LLM). */
    double simTailMs = 0;

    std::optional<krisp::ServerResult> closed;
    std::optional<krisp::ClusterResult> cluster;
    std::optional<krisp::LlmResult> llm;

    /** The streamed trace (ClusterOpenTraced only) and its size. */
    std::string tracePath;
    std::uint64_t traceBytes = 0;
};

/**
 * Run @p w once.
 * @param outDir   where the streamed trace of ClusterOpenTraced goes
 * @param obs      extra ObsContext for the traced run (null in the
 *                 end-to-end runs); ClusterOpenTraced brings its own
 *                 when this is null.
 * @param cluster  optional override of the cluster config (used by
 *                 the traced run to replay under the windowed engine)
 * @param keepTrace leave the streamed trace on disk for the caller;
 *                 otherwise it is deleted once its size is taken
 */
RunOutcome runOnce(Workload w, std::uint64_t seed, bool empty,
                   const std::string &outDir,
                   krisp::ObsContext *obs = nullptr,
                   const krisp::ClusterConfig *cluster = nullptr,
                   bool keepTrace = false);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
