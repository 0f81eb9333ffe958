/**
 * @file
 * The figure-running driver behind isim-fig (and the tests): run a
 * spec under a RunOptions, print the paper-style report, and write
 * the figure JSON when requested.
 */

#ifndef ISIM_CORE_DRIVER_HH
#define ISIM_CORE_DRIVER_HH

#include <string>

#include "src/config/run_options.hh"
#include "src/core/experiment.hh"

namespace isim {

/**
 * Run one figure and print its report to stdout; writes
 * `<options.jsonDir>/<slug(id_title)>.json` when a JSON directory is
 * configured. Returns a process exit status (0 on success).
 */
int runFigureAndPrint(const FigureSpec &spec, const RunOptions &options);

/** The JSON file stem used for a figure ("figure_5_oltp_with_..."). */
std::string figureJsonStem(const FigureSpec &spec);

} // namespace isim

#endif // ISIM_CORE_DRIVER_HH
