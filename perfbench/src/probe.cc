#include "probe.hh"

#include <sys/mman.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench
{

HostProbe::HostProbe()
{
    void *table = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (table == MAP_FAILED) {
        std::perror("krisp_perfbench: mmap of the host probe table");
        std::exit(2);
    }
    next_ = static_cast<std::uint32_t *>(table);
    // Sattolo's shuffle: a uniformly random single cycle through every
    // entry, from a fixed generator so each process chases the same one.
    for (std::size_t i = 0; i < kEntries; ++i)
        next_[i] = static_cast<std::uint32_t>(i);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kEntries - 1; i > 0; --i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(next_[i], next_[(state >> 33) % i]);
    }
}

HostProbe::~HostProbe()
{
    munmap(next_, kBytes);
}

double
HostProbe::nsPerStep()
{
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t c = cursor_;
    for (unsigned i = 0; i < kSteps; ++i)
        c = next_[c];
    const auto t1 = std::chrono::steady_clock::now();
    // Keeping the cursor makes each step depend on the last and the
    // loop impossible to drop.
    cursor_ = c;
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           kSteps;
}

} // namespace perfbench
