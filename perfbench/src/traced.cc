#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "checks.hh"
#include "common/random.hh"
#include "core/mask_allocator.hh"
#include "core/perf_database.hh"
#include "gpu/gpu_config.hh"
#include "kern/timing_model.hh"
#include "models/model_zoo.hh"
#include "obs/obs.hh"
#include "profile/kernel_profiler.hh"
#include "report.hh"
#include "sim/event_queue.hh"

using namespace krisp;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Every per-layer metric, in print order, with its unit. Each traced
 * run prints all of them; a metric a workload's layers do not produce
 * reads 0 (see the README for which ones apply where).
 */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"sim.events_fired", "count"},
    {"sim.events_per_request", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"kern.timing_ns_per_call", "ns"},
    {"gpu.kernels_dispatched", "count"},
    {"gpu.host_ns_per_kernel", "ns"},
    {"gpu.concurrency_at_dispatch.mean", "count"},
    {"gpu.kernel_latency_ns.mean", "ns"},
    {"core.krisp.launches", "count"},
    {"core.krisp.reconfig_launches", "count"},
    {"core.krisp.reconfig_elisions", "count"},
    {"core.krisp.grouped_launches", "count"},
    {"core.krisp.requested_cus.mean", "CUs"},
    {"core.alloc.ns_per_call", "ns"},
    {"hsa.barriers_processed", "count"},
    {"hsa.ioctls_completed", "count"},
    {"hsa.ioctl_queue_delay_ns.mean", "ns"},
    {"hsa.queue_mask_reconfigs", "count"},
    {"server.mean_batch_size", "requests"},
    {"server.phase.queue_ms.p99", "ms"},
    {"server.llm.decode_steps", "count"},
    {"server.llm.prefill_chunks", "count"},
    {"server.llm.mean_decode_batch", "requests"},
    {"server.llm.preemptions", "count"},
    {"server.llm.kv_peak_bytes", "bytes"},
    {"server.llm.ttft_p99_ms", "ms"},
    {"server.llm.itl_p99_ms", "ms"},
    {"server.llm.goodput_rps", "req/s"},
    {"cluster.routing_decisions", "count"},
    {"cluster.fabric.cross_messages", "count"},
    {"cluster.fabric.host_ns_per_event", "ns"},
    {"cluster.fabric.windowed_s.w1", "s"},
    {"cluster.fabric.windowed_s.w2", "s"},
    {"cluster.fabric.windowed_s.w4", "s"},
    {"cluster.fabric.windows", "count"},
    {"obs.trace_records", "count"},
    {"obs.trace_bytes", "bytes"},
    {"obs.sampled_requests", "count"},
    {"obs.traced_over_untraced", "ratio"},
    {"models.lower_s", "s"},
    {"profile.profile_s", "s"},
    {"sim.p50_ms", "ms"},
    {"sim.p99_ms", "ms"},
    {"sim.energy_j_per_req", "J"},
    {"bench.untraced_wall_s", "s"},
    {"bench.traced_wall_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

/** Untraced repetitions behind the overhead baseline. */
constexpr int kUntracedReps = 3;

double
gauge(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? m.gauge(name).value() : 0.0;
}

double
counter(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? static_cast<double>(m.counter(name).value())
                       : 0.0;
}

double
p99(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? m.percentiles(name).percentile(0.99) : 0.0;
}

double
p50(MetricsRegistry &m, const std::string &name)
{
    return m.has(name) ? m.percentiles(name).percentile(0.50) : 0.0;
}

/**
 * The kernel sequences the workload's serving path lowers and
 * profiles, requested through the public ModelZoo API in the same
 * order (closed loop: one sequence per worker; cluster shard: every
 * batch size it can assemble; LLM shard: every prefill chunk
 * position and every decode batch at every context bucket).
 */
std::vector<const std::vector<KernelDescPtr> *>
lowerWorkload(Workload w, std::uint64_t seed, const ModelZoo &zoo)
{
    std::vector<const std::vector<KernelDescPtr> *> seqs;
    switch (pathOf(w)) {
      case Path::Closed: {
        const ServerConfig cfg = colocConfig(seed, false);
        for (const std::string &m : cfg.workerModels)
            seqs.push_back(&zoo.kernels(m, cfg.batch));
        break;
      }
      case Path::Cluster: {
        const ClusterConfig cfg = clusterConfig(seed, false);
        for (const std::string &m : cfg.models)
            for (unsigned b = 1; b <= cfg.maxBatch; ++b)
                seqs.push_back(&zoo.kernels(m, b));
        break;
      }
      case Path::Llm: {
        const LlmEngineConfig cfg = llmConfig(seed, false);
        const LlmParams &p = ModelZoo::llmInfo(cfg.model);
        const unsigned granule = ModelZoo::contextBucket(1);
        for (unsigned past = 0; past < p.maxContext; past += granule)
            seqs.push_back(&zoo.llmPrefillKernels(
                cfg.model, cfg.prefillChunkTokens, past));
        for (unsigned b = 1; b <= cfg.maxDecodeBatch; ++b)
            for (unsigned ctx = granule; ctx <= p.maxContext;
                 ctx += granule)
                seqs.push_back(&zoo.llmDecodeKernels(cfg.model, b, ctx));
        break;
      }
    }
    return seqs;
}

/** timing::computeTimeNs over every distinct kernel x 1..60 CUs. */
double
timingNsPerCall(const std::vector<const std::vector<KernelDescPtr> *> &seqs,
                const KernelProfiler &prof)
{
    std::vector<const KernelDescriptor *> kernels;
    std::set<const KernelDescriptor *> seen;
    for (const auto *seq : seqs)
        for (const KernelDescPtr &k : *seq)
            if (seen.insert(k.get()).second)
                kernels.push_back(k.get());
    const ArchParams &arch = prof.gpuConfig().arch;
    std::vector<CuMask> masks;
    for (unsigned c = 1; c <= arch.totalCus(); ++c)
        masks.push_back(prof.sweepMask(c));
    double sink = 0;
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    do {
        for (const KernelDescriptor *k : kernels)
            for (const CuMask &mask : masks)
                sink += timing::computeTimeNs(*k, mask, arch);
        calls += kernels.size() * masks.size();
    } while (secondsSince(t0) < 0.2);
    const double ns = secondsSince(t0) * 1e9 / static_cast<double>(calls);
    return sink > 0 ? ns : 0.0;
}

/** One step of the device's allocator / monitor sequence. */
struct AllocOp
{
    bool dispatch = false;
    unsigned requested = 0;
    std::uint64_t mask = 0;
};

std::uint64_t
argU64(const TraceRecord &rec, const char *key, int base = 10)
{
    for (const TraceArg &a : rec.args) {
        if (a.key == key) {
            // Hex args are JSON strings: skip the opening quote.
            const char *s = a.json.c_str();
            return std::strtoull(*s == '"' ? s + 1 : s, nullptr, base);
        }
    }
    return 0;
}

/**
 * The (requested CUs, monitor occupancy) sequence of a native-KRISP
 * run, rebuilt from its kernel trace: the device allocates at
 * dispatch against the monitor, adds the granted mask, and removes it
 * at retire; records are in execution order. The replay stops at the
 * first kernel whose retire was not recorded.
 */
std::vector<AllocOp>
allocOpsFromTrace(const TraceSink &trace)
{
    std::unordered_map<std::uint64_t, std::uint64_t> mask_of;
    for (const TraceRecord &rec : trace.records())
        if (rec.kind == TraceEventKind::KernelSpan)
            mask_of[argU64(rec, "kid")] = argU64(rec, "mask", 16);
    std::vector<AllocOp> ops;
    for (const TraceRecord &rec : trace.records()) {
        if (rec.kind == TraceEventKind::KernelDispatch) {
            const auto it = mask_of.find(argU64(rec, "kid"));
            if (it == mask_of.end())
                break;
            ops.push_back({true,
                           static_cast<unsigned>(
                               argU64(rec, "requested_cus")),
                           it->second});
        } else if (rec.kind == TraceEventKind::KernelSpan) {
            ops.push_back({false, 0, argU64(rec, "mask", 16)});
        }
    }
    return ops;
}

/**
 * MaskAllocator::allocate replayed over @p ops with KRISP-I's
 * allocator (Conserved, overlap limit 0). Host ns per call is the
 * replay's time minus the same replay's monitor updates alone.
 * @p matches counts replayed grants equal to the traced ones.
 */
double
allocNsPerCall(const std::vector<AllocOp> &ops, std::uint64_t &calls,
               std::uint64_t &matches)
{
    const ArchParams arch = GpuConfig::mi50().arch;
    auto replay = [&](bool allocate) {
        ResourceMonitor monitor(arch);
        MaskAllocator alloc(DistributionPolicy::Conserved, 0);
        std::uint64_t n = 0, same = 0;
        for (const AllocOp &op : ops) {
            const CuMask mask = CuMask::ofBits(op.mask);
            if (!op.dispatch) {
                monitor.removeKernel(mask);
                continue;
            }
            if (allocate && op.requested > 0) {
                ++n;
                same += alloc.allocate(op.requested, monitor).bits() ==
                        op.mask;
            }
            monitor.addKernel(mask);
        }
        calls = n;
        matches = same;
    };
    double with = 0, without = 0;
    int passes = 0;
    const auto t0 = Clock::now();
    do {
        auto t = Clock::now();
        replay(true);
        with += secondsSince(t);
        t = Clock::now();
        replay(false);
        without += secondsSince(t);
        ++passes;
    } while (secondsSince(t0) < 0.3);
    replay(true);
    if (calls == 0)
        return 0;
    return std::max(0.0, with - without) * 1e9 /
           (static_cast<double>(calls) * passes);
}

/**
 * Host ns per fired event of a bare EventQueue: 64 self-rescheduling
 * chains with seeded delays, each arming and cancelling a far timer
 * on @p cancel_share of its firings, as the servers' watchdogs do.
 */
double
eventQueueNsPerEvent(std::uint64_t events, double cancel_share,
                     std::uint64_t seed)
{
    EventQueue eq;
    Rng rng(seed);
    constexpr unsigned kChains = 64;
    std::vector<EventId> timer(kChains, invalidEventId);
    std::uint64_t fired = 0;
    std::function<void(unsigned)> fire = [&](unsigned c) {
        if (++fired >= events)
            return;
        if (timer[c] != invalidEventId) {
            eq.deschedule(timer[c]);
            timer[c] = invalidEventId;
        }
        if (rng.uniform() < cancel_share)
            timer[c] = eq.scheduleIn(1'000'000'000, [] {});
        eq.scheduleIn(1 + rng() % 4096, [&fire, c] { fire(c); });
    };
    for (unsigned c = 0; c < kChains; ++c)
        eq.scheduleIn(1 + c, [&fire, c] { fire(c); });
    const auto t0 = Clock::now();
    while (fired < events && eq.step()) {
    }
    return secondsSince(t0) * 1e9 / static_cast<double>(eq.firedCount());
}

/** Records and request spans in a streamed Chrome trace. */
void
countTraceFile(const std::string &path, double &records,
               double &request_spans)
{
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    auto count = [&text](const std::string &key) {
        double n = 0;
        for (std::size_t p = text.find(key); p != std::string::npos;
             p = text.find(key, p + key.size()))
            ++n;
        return n;
    };
    records = count("\"ph\":");
    request_spans = count("\"kind\":\"request.span\"");
}

/** Per-shard sums and dispatch-weighted means of the cluster. */
void
clusterCounts(MetricsRegistry &m, unsigned shards,
              std::map<std::string, double> &v)
{
    double dispatched = 0, completed = 0, conc = 0, lat = 0;
    double cus_sum = 0, cus_n = 0;
    for (unsigned s = 0; s < shards; ++s) {
        const std::string p = "cluster.shard" + std::to_string(s) + ".";
        const double d = gauge(m, p + "gpu.kernels_dispatched");
        const double c = gauge(m, p + "gpu.kernels_completed");
        dispatched += d;
        completed += c;
        conc += d * gauge(m, p + "gpu.concurrency_at_dispatch.mean");
        lat += c * gauge(m, p + "gpu.kernel_latency_ns.mean");
        v["core.krisp.launches"] += counter(m, p + "krisp.launches");
        v["core.krisp.reconfig_launches"] +=
            counter(m, p + "krisp.reconfig_launches");
        v["core.krisp.reconfig_elisions"] +=
            counter(m, p + "krisp.reconfig_elisions");
        v["core.krisp.grouped_launches"] +=
            counter(m, p + "krisp.grouped_launches");
        if (m.has(p + "krisp.requested_cus")) {
            const Accumulator &a = m.accumulator(p + "krisp.requested_cus");
            cus_sum += a.sum();
            cus_n += static_cast<double>(a.count());
        }
        v["hsa.barriers_processed"] +=
            gauge(m, p + "gpu.barriers_processed");
        // One ioctl per emulated reconfiguration; all have completed
        // once the run drains. ClusterServer publishes no ioctl
        // service counters of its own (so no queue delay either).
        v["hsa.ioctls_completed"] += counter(m, p + "krisp.emulated_reconfigs");
        v["hsa.queue_mask_reconfigs"] +=
            gauge(m, p + "gpu.queue_mask_reconfigs");
    }
    v["gpu.kernels_dispatched"] = dispatched;
    v["gpu.concurrency_at_dispatch.mean"] =
        dispatched > 0 ? conc / dispatched : 0;
    v["gpu.kernel_latency_ns.mean"] = completed > 0 ? lat / completed : 0;
    v["core.krisp.requested_cus.mean"] = cus_n > 0 ? cus_sum / cus_n : 0;
}

} // namespace

int
tracedRun(Workload w, std::uint64_t seed, const std::string &outDir)
{
    CheckLog log;
    std::map<std::string, double> v;
    for (const auto &[name, unit] : kPerLayer)
        v[name] = 0;

    // Host-time spans around the benchmark's own calls into the
    // models and profile layers, on a fresh zoo and perf database.
    const GpuConfig gpu = GpuConfig::mi50();
    {
        auto t0 = Clock::now();
        const ModelZoo zoo(gpu.arch);
        const auto seqs = lowerWorkload(w, seed, zoo);
        v["models.lower_s"] = secondsSince(t0);
        const KernelProfiler prof(gpu, ProfilerConfig{});
        PerfDatabase db;
        t0 = Clock::now();
        for (const auto *seq : seqs)
            prof.profileInto(db, *seq);
        v["profile.profile_s"] = secondsSince(t0);
        log.expect(!db.empty(), "profiling filled no perf DB entry");
        v["kern.timing_ns_per_call"] = timingNsPerCall(seqs, prof);
    }

    // Untraced baseline, then the one traced repetition.
    std::vector<double> walls;
    RunOutcome base;
    for (int i = 0; i < kUntracedReps; ++i) {
        RunOutcome out = runOnce(w, seed, false, outDir);
        walls.push_back(out.wallS);
        if (i == 0)
            base = std::move(out);
    }
    checkRun(w, seed, base, log);
    const double untraced = median(walls);

    ObsContext obs;
    // The closed loop's kernel trace feeds the allocator replay; the
    // cluster-level sink only sees routing and request records.
    obs.trace.setEnabled(pathOf(w) == Path::Closed);
    obs.trace.setSample(0);
    RunOutcome traced = runOnce(w, seed, false, outDir, &obs);
    const std::string diff = diffSimOutputs(base, traced);
    log.expect(diff.empty(),
               "the traced run changed simulated outputs: " + diff);
    checkTraced(w, seed, obs.metrics, log);
    MetricsRegistry &m = obs.metrics;

    v["bench.untraced_wall_s"] = untraced;
    v["bench.traced_wall_s"] = traced.wallS;
    v["bench.trace_overhead"] =
        untraced > 0 ? traced.wallS / untraced - 1.0 : 0;

    double events = 0, cancel_share = 0;
    switch (pathOf(w)) {
      case Path::Closed: {
        const ServerResult &r = *traced.closed;
        events = gauge(m, "sim.events_fired");
        const double scheduled = gauge(m, "sim.events_scheduled");
        cancel_share =
            scheduled > 0 ? gauge(m, "sim.events_cancelled") / scheduled
                          : 0;
        double requests = 0;
        for (std::size_t i = 0; i < r.workers.size(); ++i)
            requests += counter(
                m, "server.worker" + std::to_string(i) + ".requests");
        v["sim.events_per_request"] =
            requests > 0 ? events / requests : 0;
        v["gpu.kernels_dispatched"] = gauge(m, "gpu.kernels_dispatched");
        v["gpu.concurrency_at_dispatch.mean"] =
            gauge(m, "gpu.concurrency_at_dispatch.mean");
        v["gpu.kernel_latency_ns.mean"] =
            gauge(m, "gpu.kernel_latency_ns.mean");
        v["core.krisp.launches"] = counter(m, "krisp.launches");
        v["core.krisp.reconfig_launches"] =
            counter(m, "krisp.reconfig_launches");
        v["core.krisp.reconfig_elisions"] =
            counter(m, "krisp.reconfig_elisions");
        v["core.krisp.grouped_launches"] =
            counter(m, "krisp.grouped_launches");
        v["core.krisp.requested_cus.mean"] =
            m.has("krisp.requested_cus")
                ? m.accumulator("krisp.requested_cus").mean()
                : 0;
        v["hsa.barriers_processed"] = gauge(m, "gpu.barriers_processed");
        v["hsa.ioctls_completed"] = gauge(m, "host.ioctls_completed");
        v["hsa.ioctl_queue_delay_ns.mean"] =
            gauge(m, "host.ioctl_queue_delay_ns.mean");
        v["hsa.queue_mask_reconfigs"] =
            gauge(m, "gpu.queue_mask_reconfigs");
        v["server.phase.queue_ms.p99"] =
            p99(m, "server.phase.queue_wait_ms");
        v["sim.p50_ms"] = p50(m, "server.latency_ms");
        v["sim.p99_ms"] = p99(m, "server.latency_ms");
        v["sim.energy_j_per_req"] = r.energyPerInferenceJ;

        log.expect(obs.trace.dropped() == 0,
                   "kernel trace hit its record limit");
        const std::vector<AllocOp> ops = allocOpsFromTrace(obs.trace);
        std::uint64_t calls = 0, matches = 0;
        v["core.alloc.ns_per_call"] = allocNsPerCall(ops, calls, matches);
        log.expect(calls > 0 && calls == gauge(m, "gpu.krisp_allocations"),
                   "allocator replay covers every traced allocation");
        log.expect(matches == calls,
                   "allocator replay reproduces every traced grant (" +
                       std::to_string(matches) + " of " +
                       std::to_string(calls) + ")");
        break;
      }
      case Path::Cluster: {
        const ClusterResult &r = *traced.cluster;
        const ClusterConfig cfg = clusterConfig(seed, false);
        events = static_cast<double>(r.engine.eventsFired);
        const double scheduled = gauge(m, "sim.events_scheduled");
        cancel_share =
            scheduled > 0 ? gauge(m, "sim.events_cancelled") / scheduled
                          : 0;
        v["sim.events_per_request"] =
            events / static_cast<double>(r.resilience.injected);
        clusterCounts(m, cfg.numShards, v);
        v["server.mean_batch_size"] = r.meanBatchSize;
        v["server.phase.queue_ms.p99"] =
            p99(m, "server.phase.queue_wait_ms");
        v["sim.p50_ms"] = r.p50Ms;
        v["sim.p99_ms"] = r.p99Ms;
        v["sim.energy_j_per_req"] = r.energyPerRequestJ;
        v["cluster.routing_decisions"] =
            static_cast<double>(r.routingDecisions);
        v["cluster.fabric.cross_messages"] =
            static_cast<double>(r.engine.crossMessages);
        v["cluster.fabric.host_ns_per_event"] = untraced * 1e9 / events;

        // The same config under the windowed engine must reproduce
        // the oracle's simulated outputs exactly.
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        for (const unsigned workers : {1u, 2u, 4u}) {
            ClusterConfig wcfg = cfg;
            wcfg.engine.engine = ClusterEngine::Parallel;
            wcfg.engine.workers = std::min(workers, hw);
            wcfg.engine.windowNs = 0;
            const RunOutcome out =
                runOnce(w, seed, false, outDir, nullptr, &wcfg);
            const std::string d = diffSimOutputs(base, out);
            log.expect(d.empty(), "windowed engine w" +
                                      std::to_string(workers) +
                                      " differs from the oracle: " + d);
            v["cluster.fabric.windowed_s.w" + std::to_string(workers)] =
                out.wallS;
            v["cluster.fabric.windows"] =
                static_cast<double>(out.cluster->engine.windows);
        }

        // The telemetry a user switches on to chase a p99 (metrics
        // plus a 1/100-sampled streamed trace) must leave the
        // simulated outputs untouched; its cost is the wall ratio.
        std::vector<double> with_obs;
        for (int i = 0; i < kUntracedReps; ++i) {
            const RunOutcome out = runOnce(Workload::ClusterOpenTraced,
                                           seed, false, outDir, nullptr,
                                           nullptr, i == 0);
            with_obs.push_back(out.wallS);
            if (i > 0)
                continue;
            checkRun(Workload::ClusterOpenTraced, seed, out, log);
            const std::string d = diffSimOutputs(base, out);
            log.expect(d.empty(),
                       "telemetry changed the simulated outputs: " + d);
            v["obs.trace_bytes"] = static_cast<double>(out.traceBytes);
            countTraceFile(out.tracePath, v["obs.trace_records"],
                           v["obs.sampled_requests"]);
            std::error_code ec;
            std::filesystem::remove(out.tracePath, ec);
            log.expect(v["obs.sampled_requests"] > 0,
                       "the sampled trace kept no request");
        }
        v["obs.traced_over_untraced"] = median(with_obs) / untraced;
        break;
      }
      case Path::Llm: {
        // LlmEngine gives its shards no ObsContext, so the device,
        // runtime and event-core counters are not published; the
        // engine's own figures come from its result.
        const LlmResult &r = *traced.llm;
        v["server.llm.decode_steps"] = static_cast<double>(r.decodeSteps);
        v["server.llm.prefill_chunks"] =
            static_cast<double>(r.prefillChunks);
        v["server.llm.mean_decode_batch"] = r.meanDecodeBatch;
        v["server.llm.preemptions"] = static_cast<double>(r.preemptions);
        v["server.llm.kv_peak_bytes"] = static_cast<double>(r.kvPeakBytes);
        v["server.llm.ttft_p99_ms"] = r.ttftP99Ms;
        v["server.llm.itl_p99_ms"] = r.itlP99Ms;
        v["server.llm.goodput_rps"] = r.goodputRps;
        v["sim.p50_ms"] = r.e2eP50Ms;
        v["sim.p99_ms"] = r.e2eP99Ms;
        break;
      }
    }
    v["sim.events_fired"] = events;
    if (v["gpu.kernels_dispatched"] > 0)
        v["gpu.host_ns_per_kernel"] =
            untraced * 1e9 / v["gpu.kernels_dispatched"];
    v["sim.host_ns_per_event"] = eventQueueNsPerEvent(
        events > 0 ? std::min<double>(events, 2e6) : 1e6, cancel_share,
        seed);

    Report report;
    for (const auto &[name, unit] : kPerLayer)
        report.add(name, v.at(name), unit);
    std::fprintf(stderr,
                 "%s traced: untraced median %.4f s, traced %.4f s "
                 "(overhead %+.1f%%)\n",
                 workloadName(w), untraced, traced.wallS,
                 v["bench.trace_overhead"] * 100.0);
    return report.print(log, traced.attempted, traced.failed);
}

} // namespace perfbench
