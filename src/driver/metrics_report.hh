/**
 * @file
 * Renders one driver run's observability data — the full metrics
 * registry, per-phase timings, sweep-worker utilization, peak RSS,
 * and per-job timings — as a single JSON document (the --metrics-out
 * file). Lives in driver/ rather than common/ because it composes
 * driver::json and the ExperimentReport; the registry itself stays
 * dependency-free in common/.
 */

#ifndef PROPHET_DRIVER_METRICS_REPORT_HH
#define PROPHET_DRIVER_METRICS_REPORT_HH

#include <string>

#include "driver/driver.hh"
#include "driver/json.hh"

namespace prophet::driver
{

/**
 * Build the metrics document for a finished run: run metadata from
 * @p report, every counter and histogram in the metrics registry,
 * a "phases" summary derived from the "phase.*_ns" histograms, the
 * sweep-worker utilization, peak RSS, and one "jobs" entry per
 * JobResult.
 */
json::Value buildMetricsReport(const ExperimentReport &report);

/**
 * Current peak resident set size of this process in bytes (0 when
 * the platform cannot report it).
 */
std::uint64_t peakRssBytes();

/**
 * Write buildMetricsReport() to @p path. Returns false (after a
 * warning on stderr) when the file cannot be written.
 */
bool writeMetricsReport(const ExperimentReport &report,
                        const std::string &path);

} // namespace prophet::driver

#endif // PROPHET_DRIVER_METRICS_REPORT_HH
