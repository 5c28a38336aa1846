/**
 * @file
 * Output checks computed apart from the program: each one derives
 * its expectation from the paper's Table III, the timing model's
 * isolated latencies, the power model's parameters or a conservation
 * law, never from a stored copy of an earlier output.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "workloads.hh"

namespace perfbench
{

/** Collects failed checks; a run is correct iff none failed. */
class CheckLog
{
  public:
    /** Record @p what as failed unless @p ok. */
    void expect(bool ok, const std::string &what);
    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

/** Closed loop: tolerance on each worker's rps x mean latency = 1. */
constexpr double kLittleTolerance = 0.15;

/** Kernels per inference of a Table III model (the paper's counts). */
unsigned tableIIIKernels(const std::string &model);

/**
 * Lower bound on any request's latency: the model's kernels at
 * @p batch on an idle full GPU (timing::computeTimeNs over all CUs,
 * summed in stream order) plus pre- and post-processing, in ms.
 */
double isolatedFloorMs(const std::string &model, unsigned batch,
                       krisp::Tick preprocessNs,
                       krisp::Tick postprocessNs);

/** Checks on one end-to-end run of @p w. */
void checkRun(Workload w, std::uint64_t seed, const RunOutcome &out,
              CheckLog &log);

/**
 * Checks that need the traced run's metrics registry: kernels per
 * request against Table III, and the fastest request against its
 * isolated floor.
 */
void checkTraced(Workload w, std::uint64_t seed,
                 krisp::MetricsRegistry &metrics, CheckLog &log);

/**
 * Exact equality of every simulated output @p a and @p b report
 * (latency percentiles, counts, energy, routing hash). Empty when
 * equal, otherwise the first field that differs.
 */
std::string diffSimOutputs(const RunOutcome &a, const RunOutcome &b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
