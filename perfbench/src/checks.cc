#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "gpu/gpu_config.hh"
#include "kern/timing_model.hh"
#include "models/model_zoo.hh"

using namespace krisp;

namespace perfbench
{

namespace
{

std::string
fmt(const char *what, double got, double want)
{
    std::ostringstream os;
    os.precision(10);
    os << what << ": got " << got << ", expected " << want;
    return os.str();
}

/** Power model bounds: idle, and every CU, SE and the memory busy. */
void
checkPower(double avg_w, CheckLog &log)
{
    const GpuConfig gpu = GpuConfig::mi50();
    const PowerParams &p = gpu.power;
    const double peak = p.idleW + gpu.arch.totalCus() * p.cuActiveW +
                        gpu.arch.numSe * p.seUncoreW + p.memMaxW;
    log.expect(avg_w >= p.idleW && avg_w <= peak,
               fmt("average power W below idle or above peak", avg_w,
                   avg_w < p.idleW ? p.idleW : peak));
}

double
gaugeOr0(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? m.gauge(name).value() : 0.0;
}

double
counterOr0(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? static_cast<double>(m.counter(name).value())
                       : 0.0;
}

void
checkClosed(std::uint64_t seed, const ServerResult &r, CheckLog &log)
{
    const ServerConfig cfg = colocConfig(seed, false);
    log.expect(!r.timedOut, "closed loop hit maxSimNs");
    log.expect(r.workers.size() == cfg.workerModels.size(),
               "closed loop reported a worker per model");
    for (const WorkerResult &w : r.workers) {
        log.expect(w.completed >= cfg.measuredRequests,
                   fmt(("measured requests of " + w.model).c_str(),
                       static_cast<double>(w.completed),
                       cfg.measuredRequests));
        // Each worker always has exactly one request in the system,
        // so by Little's law throughput x mean latency is 1, up to
        // the partial requests cut at the window's two edges.
        const double little = w.rps * w.meanLatencyMs / 1e3;
        log.expect(std::abs(little - 1.0) <= kLittleTolerance,
                   fmt(("rps x mean latency of " + w.model).c_str(),
                       little, 1.0));
        const double floor = isolatedFloorMs(
            w.model, cfg.batch, cfg.preprocessNs, cfg.postprocessNs);
        log.expect(w.meanLatencyMs >= floor,
                   fmt(("mean latency ms above the isolated floor of " +
                        w.model).c_str(),
                       w.meanLatencyMs, floor));
    }
    checkPower(r.avgPowerW, log);
}

void
checkCluster(std::uint64_t seed, const ClusterResult &r, CheckLog &log)
{
    const ClusterConfig cfg = clusterConfig(seed, false);
    log.expect(!r.timedOut, "cluster run hit maxSimNs");
    const ResilienceStats &res = r.resilience;
    // Conservation, whole run: every arrival ends exactly once.
    log.expect(res.injected == res.completed + res.shed + res.dropped +
                                   res.failed + res.inFlight,
               fmt("arrivals = served + shed + dropped + failed + in "
                   "flight",
                   static_cast<double>(res.injected),
                   static_cast<double>(res.completed + res.shed +
                                       res.dropped + res.failed +
                                       res.inFlight)));
    log.expect(res.inFlight == 0,
               fmt("requests in flight after the drain",
                   static_cast<double>(res.inFlight), 0));
    log.expect(r.allocatorsPristine, "allocators pristine after drain");
    // Poisson arrivals: the measured count is within 4 sigma of
    // rate x window.
    const double expect =
        cfg.arrivalRatePerSec * ticksToSec(cfg.measureNs);
    log.expect(std::abs(static_cast<double>(r.arrivals) - expect) <=
                   4.0 * std::sqrt(expect),
               fmt("measured arrivals", static_cast<double>(r.arrivals),
                   expect));
    double floor = 1e300;
    for (const std::string &m : cfg.models)
        floor = std::min(floor, isolatedFloorMs(m, 1, cfg.preprocessNs,
                                                cfg.postprocessNs));
    log.expect(r.p50Ms >= floor,
               fmt("p50 ms above the fastest isolated floor", r.p50Ms,
                   floor));
    log.expect(r.p50Ms <= r.p95Ms && r.p95Ms <= r.p99Ms,
               "latency percentiles ordered");
    const double per_shard_w =
        r.energyPerRequestJ * static_cast<double>(r.served) /
        (ticksToSec(cfg.measureNs) * cfg.numShards);
    checkPower(per_shard_w, log);
}

void
checkLlm(const LlmResult &r, CheckLog &log)
{
    log.expect(!r.timedOut, "LLM run hit maxSimNs");
    log.expect(r.kvAllocatedCum == r.kvFreedCum,
               fmt("KV bytes allocated = freed",
                   static_cast<double>(r.kvAllocatedCum),
                   static_cast<double>(r.kvFreedCum)));
    log.expect(r.kvLeakBytes == 0, "KV leak after the drain");
    log.expect(r.ttftP50Ms <= r.e2eP50Ms,
               fmt("TTFT p50 <= e2e p50", r.ttftP50Ms, r.e2eP50Ms));
    log.expect(r.ttftP99Ms <= r.e2eP99Ms,
               fmt("TTFT p99 <= e2e p99", r.ttftP99Ms, r.e2eP99Ms));
    log.expect(r.good <= r.served && r.served <= r.arrivals,
               "goodput <= served <= arrivals");
    log.expect(r.goodputRps <= r.servedRps,
               fmt("goodput rps <= served rps", r.goodputRps,
                   r.servedRps));
}

} // namespace

void
CheckLog::expect(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

unsigned
tableIIIKernels(const std::string &model)
{
    static const std::map<std::string, unsigned> counts = {
        {"albert", 304},     {"alexnet", 34},   {"densenet201", 711},
        {"resnet152", 517},  {"resnext101", 347}, {"shufflenet", 211},
        {"squeezenet", 90},  {"vgg19", 62},
    };
    const auto it = counts.find(model);
    return it == counts.end() ? 0 : it->second;
}

double
isolatedFloorMs(const std::string &model, unsigned batch,
                Tick preprocessNs, Tick postprocessNs)
{
    const GpuConfig gpu = GpuConfig::mi50();
    const ModelZoo zoo(gpu.arch);
    const CuMask all = CuMask::full(gpu.arch);
    double ns = static_cast<double>(preprocessNs + postprocessNs);
    for (const KernelDescPtr &k : zoo.kernels(model, batch))
        ns += timing::computeTimeNs(*k, all, gpu.arch);
    return ns / 1e6;
}

void
checkRun(Workload w, std::uint64_t seed, const RunOutcome &out,
         CheckLog &log)
{
    log.expect(out.attempted > 0, "no request attempted");
    log.expect(out.simRps > 0 && out.simTailMs > 0,
               "zero throughput or tail latency");
    if (out.closed)
        checkClosed(seed, *out.closed, log);
    if (out.cluster)
        checkCluster(seed, *out.cluster, log);
    if (out.llm)
        checkLlm(*out.llm, log);
    if (w == Workload::ClusterOpenTraced)
        log.expect(out.traceBytes > 0, "streamed trace is empty");
}

void
checkTraced(Workload w, std::uint64_t seed, MetricsRegistry &m,
            CheckLog &log)
{
    switch (pathOf(w)) {
      case Path::Closed: {
        const ServerConfig cfg = colocConfig(seed, false);
        // Every request of worker i runs model i's whole sequence
        // once (batch 32 is one inference), and the run drains.
        double expect_kernels = 0;
        for (std::size_t i = 0; i < cfg.workerModels.size(); ++i) {
            const std::string prefix =
                "server.worker" + std::to_string(i) + ".";
            const std::string &model = cfg.workerModels[i];
            expect_kernels += counterOr0(m, prefix + "requests") *
                              tableIIIKernels(model);
            const double floor = isolatedFloorMs(
                model, cfg.batch, cfg.preprocessNs, cfg.postprocessNs);
            const double fastest =
                m.has(prefix + "latency_ms")
                    ? m.percentiles(prefix + "latency_ms").min()
                    : 0.0;
            log.expect(fastest >= floor,
                       fmt(("fastest request ms vs isolated floor of " +
                            model).c_str(),
                           fastest, floor));
        }
        log.expect(gaugeOr0(m, "gpu.kernels_dispatched") == expect_kernels,
                   fmt("kernels dispatched = requests x Table III count",
                       gaugeOr0(m, "gpu.kernels_dispatched"),
                       expect_kernels));
        break;
      }
      case Path::Cluster: {
        const ClusterConfig cfg = clusterConfig(seed, false);
        // Under emulated enforcement every kernel is one KRISP
        // launch, and each dispatched kernel retires after the drain.
        double dispatched = 0, completed = 0, launches = 0;
        for (unsigned s = 0; s < cfg.numShards; ++s) {
            const std::string p = "cluster.shard" + std::to_string(s) + ".";
            dispatched += gaugeOr0(m, p + "gpu.kernels_dispatched");
            completed += gaugeOr0(m, p + "gpu.kernels_completed");
            launches += counterOr0(m, p + "krisp.launches");
        }
        log.expect(dispatched > 0 && dispatched == completed &&
                       dispatched == launches,
                   fmt("kernels dispatched = completed = KRISP launches",
                       dispatched, launches));
        double floor = 1e300;
        for (const std::string &model : cfg.models)
            floor = std::min(floor,
                             isolatedFloorMs(model, 1, cfg.preprocessNs,
                                             cfg.postprocessNs));
        const double fastest =
            m.has("server.latency_ms")
                ? m.percentiles("server.latency_ms").min()
                : 0.0;
        log.expect(fastest >= floor,
                   fmt("fastest request ms vs the fastest isolated floor",
                       fastest, floor));
        break;
      }
      case Path::Llm:
        // LlmEngine publishes no per-kernel telemetry; its checks are
        // the end-to-end KV / percentile / goodput ones.
        break;
    }
}

std::string
diffSimOutputs(const RunOutcome &a, const RunOutcome &b)
{
    std::ostringstream os;
    os.precision(17);
    auto same = [&os](const char *what, auto x, auto y) {
        if (x != y && os.tellp() == 0)
            os << what << ": " << x << " vs " << y;
    };
    same("attempted", a.attempted, b.attempted);
    same("failed", a.failed, b.failed);
    same("sim_rps", a.simRps, b.simRps);
    same("sim_tail_ms", a.simTailMs, b.simTailMs);
    if (a.closed && b.closed) {
        same("energy_per_inference_j", a.closed->energyPerInferenceJ,
             b.closed->energyPerInferenceJ);
        for (std::size_t i = 0; i < a.closed->workers.size() &&
                                i < b.closed->workers.size();
             ++i) {
            same("worker mean latency", a.closed->workers[i].meanLatencyMs,
                 b.closed->workers[i].meanLatencyMs);
            same("worker p95", a.closed->workers[i].p95LatencyMs,
                 b.closed->workers[i].p95LatencyMs);
        }
    }
    if (a.cluster && b.cluster) {
        const ClusterResult &x = *a.cluster, &y = *b.cluster;
        same("p50_ms", x.p50Ms, y.p50Ms);
        same("p95_ms", x.p95Ms, y.p95Ms);
        same("arrivals", x.arrivals, y.arrivals);
        same("served", x.served, y.served);
        same("mean_batch", x.meanBatchSize, y.meanBatchSize);
        same("energy_per_request_j", x.energyPerRequestJ,
             y.energyPerRequestJ);
        same("routing_hash", x.routingHash, y.routingHash);
        same("events_fired", x.engine.eventsFired, y.engine.eventsFired);
    }
    if (a.llm && b.llm) {
        const LlmResult &x = *a.llm, &y = *b.llm;
        same("ttft_p99_ms", x.ttftP99Ms, y.ttftP99Ms);
        same("itl_p99_ms", x.itlP99Ms, y.itlP99Ms);
        same("e2e_p50_ms", x.e2eP50Ms, y.e2eP50Ms);
        same("goodput_rps", x.goodputRps, y.goodputRps);
        same("tokens", x.tokens, y.tokens);
        same("kv_peak_bytes", x.kvPeakBytes, y.kvPeakBytes);
    }
    return os.str();
}

} // namespace perfbench
