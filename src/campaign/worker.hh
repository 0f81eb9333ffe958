/**
 * @file
 * The one executor: a bar runner (runBar) and lease threads over a
 * CampaignQueue (runLeases). isim-campaign and ExperimentRunner (so
 * isim-fig) run every bar through both; each passes its own `work`.
 */

#ifndef ISIM_CAMPAIGN_WORKER_HH
#define ISIM_CAMPAIGN_WORKER_HH

#include <functional>
#include <string>

#include "src/campaign/queue.hh"

namespace isim {
namespace campaign {

/**
 * Run one lease's bar: build the machine, or restore it (Restore:
 * the group image under `out_dir`; --from-ckpt: its exact-config
 * image), attach `o` and the epoch grid, warm up, save the image
 * (Build, ImageOnly, --save-ckpt), measure exact or sampled, and
 * stamp name, key, digest and seed. ImageOnly returns an empty
 * result. Throws PanicError on failure (under ScopedPanicThrow).
 */
RunResult runBar(const CampaignPlan &plan, const Lease &lease,
                 const std::string &out_dir,
                 obs::Observability *o = nullptr);

/**
 * Drive `queue` to completion on `jobs` threads (the caller's alone
 * when jobs <= 1) sharing it under one lock. `work` runs each lease
 * outside the lock; an exception fails the lease with its what().
 * No lease is issued after `stop_after` completions (< 0: no limit).
 * Returns the completions, failures included.
 */
long runLeases(CampaignQueue &queue, unsigned jobs, long stop_after,
               const std::function<void(const Lease &)> &work);

} // namespace campaign
} // namespace isim

#endif // ISIM_CAMPAIGN_WORKER_HH
