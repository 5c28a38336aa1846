/**
 * @file
 * The traced run: per-layer metrics for one workload, kept apart from
 * the end-to-end runs.
 *
 * Three sources feed it:
 *  - deterministic counts from an ObsContext attached only here;
 *  - host-time spans around the benchmark's own calls into a layer
 *    (ModelZoo lowering, KernelProfiler::profileInto, the serving
 *    entry point itself);
 *  - isolated replays: timing::computeTimeNs over the workload's
 *    kernels, MaskAllocator::allocate over the traced run's (requested
 *    CUs, monitor occupancy) sequence, and a bare EventQueue.
 *
 * It also runs the workload untraced a few times to report its own
 * overhead. For cluster-open it replays the same config under the
 * windowed engine and with user telemetry on (ClusterOpenTraced);
 * both must reproduce the sequential oracle's simulated outputs
 * exactly.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <string>

#include "workloads.hh"

namespace perfbench
{

/** Runs the traced run and prints its result line; returns the exit
 *  status. */
int tracedRun(Workload w, std::uint64_t seed,
              const std::string &outDir);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
