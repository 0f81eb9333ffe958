/**
 * @file
 * Observability exporters: Chrome trace_event JSON (loadable in
 * Perfetto / chrome://tracing), timeline CSV, and the binary capture
 * format consumed by tools/itrace.
 *
 * Chrome track layout: pid 1 ("cpus") carries per-core memory /
 * directory / latch / OS events (tid = core id); pid 2
 * ("transactions") carries transaction spans (tid = server pid);
 * pid 3 ("noc") carries interconnect hops (tid = source node).
 */

#ifndef ISIM_OBS_EXPORT_HH
#define ISIM_OBS_EXPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/event.hh"
#include "src/obs/tracer.hh"
#include "src/stats/epoch.hh"

namespace isim::obs {

/** Write Chrome trace_event JSON for a list of events. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceEvent> &events,
                      std::uint64_t dropped = 0);

/** Header line of the timeline CSV (no trailing newline). */
std::string timelineCsvHeader();

/** Write epoch rows as CSV (header + one line per epoch). */
void writeTimelineCsv(std::ostream &os,
                      const std::vector<stats::EpochRow> &rows);

/** Write events as a flat CSV (header + one line per event). */
void writeEventCsv(std::ostream &os,
                   const std::vector<TraceEvent> &events);

/** One summary line per event kind present (plus totals). */
void writeSummary(std::ostream &os,
                  const std::vector<TraceEvent> &events,
                  std::uint64_t dropped, std::size_t capacity);

// ---- Binary captures (the `itrace` interchange format) ----

/** Capture file header (fixed 32 bytes, little-endian host order). */
struct CaptureHeader
{
    std::uint64_t magic = 0;    //!< captureMagic
    std::uint64_t count = 0;    //!< events stored in the file
    std::uint64_t pushed = 0;   //!< events ever recorded
    std::uint64_t capacity = 0; //!< ring capacity at record time
};

inline constexpr std::uint64_t captureMagic = 0x3143525449534900; // "\0ISITRC1"

/** Write the tracer's retained events as a binary capture. fatal() on I/O error. */
void writeCapture(const std::string &path, const Tracer &tracer);

/**
 * Read a capture written by writeCapture. Returns false (with an
 * error message in `err`) on malformed input.
 */
bool readCapture(const std::string &path, CaptureHeader &header,
                 std::vector<TraceEvent> &events, std::string &err);

} // namespace isim::obs

#endif // ISIM_OBS_EXPORT_HH
