/**
 * @file
 * krisp_perfbench: one end-to-end benchmark of the simulator, driven
 * only through its public entry points.
 *
 *   krisp_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--out-dir <dir>]
 *
 * --trace 0 (the end-to-end run): one cold set-up, timed as CPU time
 * from process start (setup_s), then whole rounds of simulated runs
 * (see roundRuns) repeated until --seconds have passed. norm_wall_s is
 * the host time of one round, each run scaled by the HostProbe times
 * that bracket it and taken at the median of its repetitions;
 * simulated-time metrics are the means over the first round, and
 * every later round must reproduce each of its runs exactly.
 *
 * --trace 1 (the traced run): per-layer metrics, see traced.hh.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Failed checks go to standard error and make the exit status 1.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "probe.hh"
#include "report.hh"
#include "traced.hh"
#include "workloads.hh"

extern char **environ;

using namespace perfbench;

namespace
{

struct Args
{
    Workload workload = Workload::ColocClosed;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "krisp_perfbench: %s\n"
                 "usage: krisp_perfbench --workload <coloc-closed|"
                 "cluster-open|llm-continuous> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            const auto w = workloadFromName(value);
            if (!w)
                usage(("unknown workload " + value).c_str());
            a.workload = *w;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed must be a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0))
                usage("--seconds must be a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--out-dir") {
            a.outDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/**
 * Several config structs default fields from KRISP_* variables in
 * their member initialisers, and a malformed value is fatal there
 * even when the benchmark overwrites the field afterwards. The
 * benchmark sets every such field itself, so any KRISP_* variable is
 * refused up front.
 */
void
refuseKrispEnv()
{
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "KRISP_", 6) == 0) {
            const char *eq = std::strchr(*e, '=');
            const int len = eq != nullptr ? static_cast<int>(eq - *e)
                                          : static_cast<int>(
                                                std::strlen(*e));
            std::fprintf(stderr,
                         "krisp_perfbench: %.*s is set; the benchmark "
                         "sets every KRISP_* knob explicitly, unset it "
                         "and run again\n",
                         len, *e);
            std::exit(2);
        }
    }
}

/**
 * Peak resident set of this process image, from VmHWM: getrusage's
 * ru_maxrss survives execve, so a child of a larger parent would
 * report the parent's peak.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

/** CPU time of the whole process since it started, s. */
double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

int
endToEnd(const Args &args)
{
    CheckLog log;

    // Cold set-up: the same run with an empty warm-up and measurement
    // window, timed as the process's CPU time since it started (the
    // process is single-threaded here, and CPU time does not count
    // the scheduling delays of a shared host).
    runOnce(args.workload, args.seed, true, args.outDir);
    const double setup_s = processCpuSeconds();

    // The probe is timed before the first run and after every run, so
    // that probes k and k + 1 bracket run k.
    HostProbe probe;
    std::vector<double> probe_ns = {probe.nsPerStep()};

    const auto measure_start = std::chrono::steady_clock::now();
    const unsigned per_round = roundRuns(args.workload);
    std::vector<RunOutcome> first_round;
    // Per run of the round: raw and probe-normalised host times of
    // each repetition.
    std::vector<std::vector<double>> walls(per_round), norm_walls(per_round);
    std::size_t runs = 0;
    std::uint64_t attempted = 0, failed = 0;
    while (runs == 0 ||
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         measure_start)
                   .count() < args.seconds) {
        const bool first = first_round.empty();
        for (unsigned i = 0; i < per_round; ++i) {
            const std::uint64_t seed = runSeed(args.seed, i);
            RunOutcome out =
                runOnce(args.workload, seed, false, args.outDir);
            probe_ns.push_back(probe.nsPerStep());
            const double bracket =
                0.5 * (probe_ns[probe_ns.size() - 2] + probe_ns.back());
            walls[i].push_back(out.wallS);
            norm_walls[i].push_back(out.wallS *
                                    HostProbe::kNominalNsPerStep / bracket);
            ++runs;
            attempted += out.attempted;
            failed += out.failed;
            if (first) {
                checkRun(args.workload, seed, out, log);
                first_round.push_back(std::move(out));
            } else {
                const std::string diff = diffSimOutputs(first_round[i], out);
                log.expect(diff.empty(),
                           "run " + std::to_string(runs) +
                               " changed simulated outputs: " + diff);
            }
        }
    }
    // One round's host time: each run of the round at the median of its
    // repetitions, so the round's work (and not one seed's) is timed.
    double round_wall = 0, norm_round_wall = 0, sim_rps = 0, sim_tail_ms = 0;
    for (unsigned i = 0; i < per_round; ++i) {
        round_wall += median(walls[i]);
        norm_round_wall += median(norm_walls[i]);
        sim_rps += first_round[i].simRps / per_round;
        sim_tail_ms += first_round[i].simTailMs / per_round;
    }

    Report report;
    report.add("setup_s", setup_s, "s");
    report.add("norm_wall_s", norm_round_wall, "s");
    // The probe's table is mapped after set-up and stays resident to
    // the end, so it sits on top of every measured run's peak.
    report.add("peak_rss_mb",
               peakRssMb() - HostProbe::kBytes / (1024.0 * 1024.0), "MiB");
    report.add("sim_rps", sim_rps, "req/s");
    report.add("sim_tail_ms", sim_tail_ms, "ms");
    std::fprintf(stderr,
                 "%s: %zu runs in rounds of %u, raw round wall %.4f s, "
                 "probe median %.1f ns/step\n",
                 workloadName(args.workload), runs, per_round, round_wall,
                 median(probe_ns));
    return report.print(log, attempted, failed);
}

} // namespace

int
main(int argc, char **argv)
{
    refuseKrispEnv();
    const Args args = parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(args.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "krisp_perfbench: cannot create %s: %s\n",
                     args.outDir.c_str(), ec.message().c_str());
        return 2;
    }
    if (args.trace)
        return tracedRun(args.workload, runSeed(args.seed, 0), args.outDir);
    return endToEnd(args);
}
