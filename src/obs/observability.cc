/**
 * @file
 * Observability bundle implementation.
 */

#include "src/obs/observability.hh"

#include <fstream>
#include <functional>

#include "src/base/logging.hh"
#include "src/obs/export.hh"

namespace isim::obs {

Observability::Observability(const ObsConfig &config)
    : config_(config), tracer_(config.ringCapacity)
{
}

namespace {

void
writeFileOrDie(const std::string &path, const std::string &what,
               const std::function<void(std::ostream &)> &emit)
{
    std::ofstream out(path);
    if (!out)
        isim_fatal("cannot open %s file '%s'", what.c_str(),
                   path.c_str());
    emit(out);
    if (!out)
        isim_fatal("write to %s file '%s' failed", what.c_str(),
                   path.c_str());
}

} // namespace

std::string
Observability::writeOutputs(
    const std::vector<stats::EpochRow> &timeline) const
{
    std::string written;
    auto note = [&](const std::string &path) {
        if (!written.empty())
            written += ", ";
        written += path;
    };
#ifndef ISIM_OBS
    if (config_.wantsEvents())
        isim_warn("built with ISIM_OBS=OFF: event trace will be empty");
#endif
    if (!config_.traceOutPath.empty()) {
        writeFileOrDie(config_.traceOutPath, "trace",
                       [&](std::ostream &os) {
                           writeChromeTrace(os, tracer_);
                       });
        note(config_.traceOutPath);
    }
    if (!config_.traceBinPath.empty()) {
        writeCapture(config_.traceBinPath, tracer_);
        note(config_.traceBinPath);
    }
    if ((!config_.traceOutPath.empty() ||
         !config_.traceBinPath.empty()) &&
        tracer_.ring().dropped() > 0) {
        // The ring was full, so pushed() is known exactly; suggest
        // the next power of two that would have held everything.
        std::size_t suggested = 1;
        while (suggested < tracer_.ring().pushed())
            suggested *= 2;
        isim_warn("trace ring overflowed: %llu events were lost "
                  "(ring capacity %zu); rerun with --trace-ring=%zu "
                  "to capture them all",
                  static_cast<unsigned long long>(
                      tracer_.ring().dropped()),
                  tracer_.ring().capacity(), suggested);
    }
    if (!config_.timelineOutPath.empty()) {
        writeFileOrDie(config_.timelineOutPath, "timeline",
                       [&](std::ostream &os) {
                           writeTimelineCsv(os, timeline);
                       });
        note(config_.timelineOutPath);
    }
    return written;
}

} // namespace isim::obs
