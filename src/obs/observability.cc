/**
 * @file
 * Observability bundle implementation.
 */

#include "src/obs/observability.hh"

#include "src/base/logging.hh"
#include "src/obs/export.hh"

namespace isim::obs {

Observability::Observability(const ObsConfig &config)
    : config_(config), tracer_(config.ringCapacity)
{
}

void
Observability::writeOutputs() const
{
    if (!config_.wantsEvents())
        return;
#ifndef ISIM_OBS
    isim_warn("built with ISIM_OBS=OFF: event trace will be empty");
#endif
    writeCapture(config_.traceBinPath, tracer_);
    if (tracer_.ring().dropped() > 0) {
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
}

} // namespace isim::obs
