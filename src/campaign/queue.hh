/**
 * @file
 * Campaign expansion and the lease scheduler.
 *
 * expandCampaign() turns a spec into the flat, deterministic bar
 * list that `run`, `expand`, `status` and the merge all recompute
 * identically from (spec, options): figures in
 * resolution order, bars in figure order, the seed axis outermost.
 * Each bar carries its content-address key (stats::resultKey) and
 * its warm-image group key.
 *
 * planFigures() plans in-memory figures the same way, for
 * runFigures(), with no warm groups: every lease is Cold.
 *
 * CampaignQueue is the scheduler: it scans the output directory for
 * cached cells, then hands out leases in bar-index order. It is
 * checkpoint-aware — bars whose configurations differ only in
 * integration level / L2 implementation share one warm image, so the
 * group's first bar is leased as Build (warm up, save the image,
 * measure) and the rest as Restore (measure from the image under
 * their own latency table). When the builder's result is already
 * cached but the image is missing, an ImageOnly lease re-runs just
 * the builder's warm-up to regenerate it — the image is a
 * deterministic function of the builder's configuration, so restored
 * members measure the same bytes either way.
 */

#ifndef ISIM_CAMPAIGN_QUEUE_HH
#define ISIM_CAMPAIGN_QUEUE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/campaign/spec.hh"
#include "src/config/run_options.hh"
#include "src/core/experiment.hh"

namespace isim {
namespace campaign {

/** What a lease asks its thread to do with its bar. */
enum class LeaseMode : std::uint8_t {
    Cold,      //!< build, warm up, measure (no image involved)
    Build,     //!< warm up, save the group image, measure
    Restore,   //!< measure from the group image (latency override)
    ImageOnly, //!< warm up and save the image only — no measurement
};

/** Log token of a mode ("cold" / "build" / "restore" / "image"). */
const char *leaseModeName(LeaseMode mode);

constexpr std::size_t kNoAlias = ~std::size_t{0};

/** One expanded (figure bar, seed) cell. */
struct CampaignBar
{
    std::size_t index = 0;  //!< position in expansion order
    std::string figureId;   //!< registry id the bar came from
    std::string name;       //!< "<figure>:<bar>" or "...@s<seed>"
    MachineConfig config;   //!< fully resolved (spec + flags + seed)
    std::string key;        //!< content-address (stats::resultKey)
    std::string configDigest;
    std::uint64_t seed = 0;
    std::string groupKey;   //!< warm-image identity (warmGroupKey)
    /**
     * When another bar earlier in expansion order has the same key,
     * its index: this bar is an alias — never leased, it shares the
     * primary's cached result and fate.
     */
    std::size_t aliasOf = kNoAlias;
    /** The --trace-bar of a figure: runs itself, never aliased. */
    bool observed = false;
};

struct CampaignPlan
{
    CampaignSpec spec;
    std::vector<CampaignBar> bars;
    /**
     * Sampled-measurement schedule (--sample-*; disabled by default).
     * Folded into every bar key, so sampled and exact cells never
     * alias in the cache; warm images are shared either way, since
     * sampling only shapes the measurement phase.
     */
    sample::SampleSpec sample;
    /**
     * Checkpoint groups: groupKey -> member indices (ascending,
     * aliases excluded), only for groups with >= 2 members. The
     * first member is the group's builder.
     */
    std::map<std::string, std::vector<std::size_t>> groups;
    /** --stats-epoch, --save-ckpt, --from-ckpt (figure plans only). */
    Tick statsEpochTicks = 0;
    std::string saveCkptDir;
    std::string fromCkptDir;
};

/**
 * The warm-image identity of a configuration: the config digest with
 * name, integration level and L2 implementation canonicalized away —
 * exactly the knobs fromCheckpoint(path, level, l2Impl) may override
 * on restore. Two bars share a warm image iff their keys are equal.
 */
std::string warmGroupKey(const MachineConfig &config);

/**
 * Expand a spec against the figure registry. Fatal on an unknown
 * figure id. `options` supplies the txns/warmup/seed overrides that
 * beat the spec's (flags win; the spec's seed axis beats --seed).
 * Fatal, naming the flag, when `options` asks for an output a
 * campaign does not write (--stats-epoch, --stats-out, --save-ckpt,
 * --from-ckpt or a capture flag).
 */
CampaignPlan expandCampaign(const CampaignSpec &spec,
                            const RunOptions &options);

/**
 * Plan figure runs: every bar of every spec in order, under the
 * options' overrides. Identical bars alias; warm groups are off.
 * Fatal, naming both bars and the path, when two bars that are not
 * aliases map to one --save-ckpt / --from-ckpt file.
 */
CampaignPlan planFigures(const std::vector<FigureSpec> &figures,
                         const RunOptions &options);

struct Lease
{
    std::size_t index = 0; //!< bar index (builder's, for ImageOnly)
    LeaseMode mode = LeaseMode::Cold;
};

/** Scheduler tallies, for the end-of-run summary line. */
struct CampaignTally
{
    std::size_t total = 0;   //!< bars incl. aliases
    std::size_t aliases = 0;
    std::size_t cached = 0;  //!< primaries skipped via the cache
    std::size_t ran = 0;     //!< primaries measured this session
    std::size_t failed = 0;
    std::size_t imagesBuilt = 0;    //!< Build + ImageOnly completions
    std::size_t imagesRestored = 0; //!< Restore completions
    std::size_t coldRuns = 0;
};

/**
 * The lease state machine. Not thread-safe itself: the supervisor's
 * lease threads call it only while holding one shared lock.
 * Construction scans `out_dir` for cached bar results and existing
 * warm images (an empty `out_dir` is no cache: every bar runs);
 * next()/complete()/fail() then drive every bar to Done, Cached or
 * Failed.
 */
class CampaignQueue
{
  public:
    CampaignQueue(const CampaignPlan &plan, const std::string &out_dir);

    /**
     * Next lease in bar-index order, or nullopt when nothing is
     * leasable right now (all resolved, or the rest are waiting on
     * an in-flight image build).
     */
    std::optional<Lease> next();

    void complete(const Lease &lease);
    void fail(const Lease &lease, const std::string &reason);

    /** Every bar resolved and no image work outstanding. */
    bool finished() const;

    /** Whether the bar (alias-resolved) holds a valid result. */
    bool barOk(std::size_t index) const;
    /** Failure reason of a failed bar ("" otherwise). */
    const std::string &failReason(std::size_t index) const;

    const CampaignTally &tally() const { return tally_; }

  private:
    enum class State : std::uint8_t {
        Cached,  //!< valid result found on disk at construction
        Pending,
        Leased,
        Done,    //!< measured this session
        Failed,
    };

    struct Group
    {
        std::vector<std::size_t> members; //!< ascending; [0] builds
        bool imageReady = false;
        bool imageLeased = false; //!< an ImageOnly lease is out
    };

    std::size_t resolveAlias(std::size_t index) const;
    Group *groupOf(std::size_t index);
    /** Fail every still-pending member of a group (builder broke). */
    void cascadeFail(Group &group, const std::string &reason);

    const CampaignPlan &plan_;
    std::vector<State> state_;
    std::vector<std::string> reason_;
    std::map<std::string, Group> groups_;
    CampaignTally tally_;
};

} // namespace campaign
} // namespace isim

#endif // ISIM_CAMPAIGN_QUEUE_HH
