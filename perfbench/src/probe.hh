/**
 * @file
 * A fixed memory-latency probe, timed between the simulated runs so
 * that each run's host time can be scaled to a nominal host speed.
 *
 * On a host shared with other jobs, the simulator's host time swings
 * by up to 1.7x over seconds to minutes while a pure ALU loop moves by
 * ~10 %: the swings come from contention in the shared cache and
 * memory, which the simulator's pointer-heavy event loop feels and
 * an ALU loop does not. A dependent pointer chase through a table
 * twice the size of a core's L2 feels the same contention. Scaling
 * each run by the probe times that bracket it cut the spread of a
 * run's figure across runs by up to 3x on such a host (see README.md).
 *
 * The probe's code is the benchmark's own and never changes with the
 * simulator, so a faster simulator still reads faster.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstddef>
#include <cstdint>

namespace perfbench
{

class HostProbe
{
  public:
    /** Table entries: 4 MiB of 32-bit indices. */
    static constexpr std::size_t kEntries = std::size_t{1} << 20;
    static constexpr std::size_t kBytes = kEntries * sizeof(std::uint32_t);
    /** Chase steps per probe, about 30 ms on the reference host. */
    static constexpr unsigned kSteps = 300000;
    /** Host latency per step that normalised times are scaled to. */
    static constexpr double kNominalNsPerStep = 100.0;

    /** Maps the table (outside the malloc heap, so that it adds
     *  exactly kBytes to the resident set) and links it into one
     *  random cycle. */
    HostProbe();
    ~HostProbe();
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Times one chase of kSteps; host ns per step. */
    double nsPerStep();

  private:
    std::uint32_t *next_ = nullptr;
    std::uint32_t cursor_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
