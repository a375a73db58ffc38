/**
 * @file
 * The paper artifacts that are not a (workload x pipeline) job
 * matrix, each rendered as a human-readable report: Table 1, the
 * Section 5.10 storage accounting, and the motivational trace
 * analyses of Figures 1, 6 and 8. The driver's report table
 * (driver/spec.hh) names them, and its table sink prints the text.
 *
 * The trace analyses read traces and profiles through the run's
 * Runner, one pass per workload through the caller's ForEachWorkload,
 * and merge by workload index, so their text is the same at any
 * thread count. A pass polls the calling thread's job token
 * (cancellation::poll), so it can be cancelled mid-trace.
 */

#ifndef PROPHET_SIM_REPORTS_HH
#define PROPHET_SIM_REPORTS_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/system_config.hh"

namespace prophet::sim
{

class Runner;

/**
 * Runs pass(i) once for each workload index i, on any threads; throws
 * when a pass failed or never ran, so no report renders from an
 * incomplete set.
 */
using ForEachWorkload =
    std::function<void(const std::function<void(std::size_t)> &pass)>;

/** Table 1: the simulated machine's parameters, heading included. */
std::string systemConfigReport(const SystemConfig &cfg);

/**
 * Section 5.10: the storage Prophet adds (replacement state, hint
 * buffer, Multi-path Victim Buffer) beside the management structures
 * of Triage and Triangel it is compared against in Section 2.1.
 */
std::string storageReport();

/**
 * Figure 1, one section per workload: the metadata stream of the
 * workload's hottest PC under a no-insertion-policy temporal
 * prefetcher, and how Triangel's PatternConf tracks it, including
 * the share of genuinely repeating accesses it rejects while its
 * confidence sits below threshold.
 */
std::string patternConfReport(Runner &runner, const ForEachWorkload &each,
                              const std::vector<std::string> &workloads);

/**
 * Figure 6, one section per workload: per-PC prefetching accuracy
 * under the simplified temporal prefetcher, showing the distinct
 * accuracy levels that make profile-guided classification possible.
 */
std::string pcAccuracyReport(Runner &runner, const ForEachWorkload &each,
                             const std::vector<std::string> &workloads);

/**
 * Figure 8: for each line address, how many distinct successor lines
 * follow it in its PC's stream (T = 1..5+), one row per workload and
 * a Geomean row. The paper's shape is about 55% single-target, 21%
 * two and 10% three: the motivation for the Multi-path Victim Buffer.
 */
std::string markovTargetsReport(Runner &runner, const ForEachWorkload &each,
                                const std::vector<std::string> &workloads);

} // namespace prophet::sim

#endif // PROPHET_SIM_REPORTS_HH
