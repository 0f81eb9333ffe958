/**
 * @file
 * Campaign lease execution: runs one lease (the four modes of
 * LeaseMode) against the result cache. The supervisor's lease
 * threads call it concurrently; each lease touches only its own
 * bar file and, for Build/ImageOnly, its group's image.
 */

#ifndef ISIM_CAMPAIGN_WORKER_HH
#define ISIM_CAMPAIGN_WORKER_HH

#include <string>

#include "src/campaign/queue.hh"

namespace isim {
namespace campaign {

struct BarOutcome
{
    bool ok = false;
    std::string reason; //!< failure description when !ok
};

/**
 * Execute one lease: run the bar under its mode, and on success
 * write its single-bar stats manifest (META key included) into the
 * cache — or, for ImageOnly, just regenerate the group's warm
 * image. Simulator panics are reported as failed outcomes; the
 * caller must have setPanicThrow(true) in effect.
 */
BarOutcome runLeasedBar(const CampaignPlan &plan, const Lease &lease,
                        const std::string &out_dir);

} // namespace campaign
} // namespace isim

#endif // ISIM_CAMPAIGN_WORKER_HH
