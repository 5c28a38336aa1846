/**
 * @file
 * The result line every run ends with, and the small statistics the
 * runs share.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.hh"

namespace perfbench
{

/** Median of @p v (0 when empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Metrics in insertion order, printed as the run's last line. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, {value, unit}});
    }

    /**
     * Print failed checks to stderr and the JSON line to stdout.
     * @return the process exit status (0 iff every check passed).
     */
    int
    print(CheckLog log, std::uint64_t attempted,
          std::uint64_t failed) const
    {
        for (const auto &[name, vu] : metrics_)
            log.expect(std::isfinite(vu.first),
                       "metric " + name + " is not finite");
        for (const std::string &f : log.failures())
            std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
        std::string line = "{\"correct\": ";
        line += log.ok() ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(attempted);
        line += ", \"failed\": " + std::to_string(failed);
        line += ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, vu] : metrics_) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g",
                          std::isfinite(vu.first) ? vu.first : 0.0);
            line += first ? "" : ", ";
            line += "\"" + name + "\": {\"value\": " + value +
                    ", \"unit\": \"" + vu.second + "\"}";
            first = false;
        }
        line += "}}";
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        return log.ok() ? 0 : 1;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
