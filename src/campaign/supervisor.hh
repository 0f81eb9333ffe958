/**
 * @file
 * Campaign supervisor: drives a whole campaign to completion —
 * prepare/validate the output directory, scan the cache, then
 * execute every pending lease on `--jobs` threads in this process,
 * sharing one CampaignQueue under one lock. Every cell's bytes are a
 * function of its own configuration only, so the thread count and
 * the completion order never change campaign.json. There is no
 * crash isolation: a cell that crashes the process ends the run, and
 * a rerun resumes from the cache. `--stop-after` turns the
 * supervisor into a deterministic interruption point for resume
 * testing.
 *
 * Exit codes: 0 = every bar ok; 2 = campaign merged but some bars
 * failed; 3 = stopped early by stopAfter (no campaign.json written);
 * 1 = fatal (bad spec, spec drift).
 */

#ifndef ISIM_CAMPAIGN_SUPERVISOR_HH
#define ISIM_CAMPAIGN_SUPERVISOR_HH

#include <string>

#include "src/config/run_options.hh"

namespace isim {
namespace campaign {

struct CampaignRunConfig
{
    std::string specPath;
    std::string outDir;
    RunOptions options; //!< options.jobs caps the lease threads
    /**
     * Stop issuing leases after this many completions this session,
     * drain, and exit 3 (< 0 = run to completion). The cache keeps
     * everything finished, so a rerun resumes exactly there.
     */
    long stopAfter = -1;
};

/**
 * How a spec file relates to the copy an output directory was
 * created with. `Missing` means the directory has no recorded copy
 * yet (fresh out dir); `Drifted` means resuming would mix studies.
 */
enum class SpecDrift { Match, Missing, Drifted };

/**
 * Read-only comparison of the spec bytes at `spec_path` against
 * `<out_dir>/campaign.spec.json`. Never writes; usable from status
 * tooling as well as the run path.
 */
SpecDrift specDrift(const std::string &spec_path,
                    const std::string &out_dir);

/** Run (or resume) the campaign; returns the process exit code. */
int runCampaign(const CampaignRunConfig &config);

} // namespace campaign
} // namespace isim

#endif // ISIM_CAMPAIGN_SUPERVISOR_HH
