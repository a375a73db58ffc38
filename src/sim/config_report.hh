/**
 * @file
 * Table 1 rendering: the simulated machine's parameters as a
 * human-readable table, which the driver's table sink prints for
 * `"report": "system-config"` specs.
 */

#ifndef PROPHET_SIM_CONFIG_REPORT_HH
#define PROPHET_SIM_CONFIG_REPORT_HH

#include <string>

#include "sim/system_config.hh"

namespace prophet::sim
{

/** The full Table 1 report, heading included, ready for stdout. */
std::string systemConfigReport(const SystemConfig &cfg);

} // namespace prophet::sim

#endif // PROPHET_SIM_CONFIG_REPORT_HH
