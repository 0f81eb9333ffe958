/**
 * @file
 * Campaign expansion and lease scheduling.
 */

#include "src/campaign/queue.hh"

#include <algorithm>
#include <filesystem>
#include <set>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/core/registry.hh"
#include "src/stats/manifest.hh"

namespace isim {
namespace campaign {

const char *
leaseModeName(LeaseMode mode)
{
    switch (mode) {
      case LeaseMode::Cold:
        return "cold";
      case LeaseMode::Build:
        return "build";
      case LeaseMode::Restore:
        return "restore";
      case LeaseMode::ImageOnly:
        return "image";
    }
    isim_panic("bad LeaseMode %d", static_cast<int>(mode));
}

std::string
warmGroupKey(const MachineConfig &config)
{
    // Canonicalize exactly the knobs a latency-override restore may
    // change (plus the name, which is a label, not state): what is
    // left — geometry, workload, seed, CPU model, memory layout —
    // must match the image bit-for-bit for a restore to be valid.
    MachineConfig canon = config;
    canon.name = "";
    canon.level = IntegrationLevel::Base;
    canon.l2Impl = L2Impl::OffchipDirect;
    const std::vector<std::uint8_t> bytes = ckpt::configBytes(canon);
    return stats::hex64(ckpt::fnv1a64(bytes.data(), bytes.size()));
}

namespace {

/**
 * Append one figure's bars to the plan, each named
 * "<figure_id>:<bar>" (plus "@s<seed>" on a seed axis). The plan's
 * spec overrides apply first, then the flags on top (flags win),
 * then the seed axis (which beats --seed).
 */
void
appendFigure(CampaignPlan &plan, const std::string &figure_id,
             const FigureSpec &figure, const RunOptions &options,
             const std::optional<std::uint64_t> &seed)
{
    for (const FigureBar &fb : figure.bars) {
        MachineConfig cfg = fb.config;
        if (plan.spec.txns)
            cfg.workload.transactions = *plan.spec.txns;
        if (plan.spec.warmup)
            cfg.workload.warmupTransactions = *plan.spec.warmup;
        options.applyTo(cfg.workload);
        if (seed)
            cfg.workload.seed = *seed;

        CampaignBar bar;
        bar.index = plan.bars.size();
        bar.figureId = figure_id;
        bar.name = figure_id + ":" + cfg.name;
        if (seed)
            bar.name += "@s" + std::to_string(*seed);
        bar.config = cfg;
        const std::vector<std::uint8_t> bytes = ckpt::configBytes(cfg);
        bar.key = stats::resultKey(bytes, cfg.workload.seed,
                                   options.sample);
        bar.configDigest = stats::configDigest(bytes);
        bar.seed = cfg.workload.seed;
        bar.groupKey = warmGroupKey(cfg);
        plan.bars.push_back(std::move(bar));
    }
}

/**
 * Identical cells (same key) collapse to one lease: the later bar
 * aliases the first and shares its result. Observed bars stay out.
 */
void
markAliases(CampaignPlan &plan)
{
    std::map<std::string, std::size_t> firstByKey;
    for (CampaignBar &bar : plan.bars) {
        if (bar.observed)
            continue;
        const auto [it, fresh] = firstByKey.emplace(bar.key, bar.index);
        if (!fresh)
            bar.aliasOf = it->second;
    }
}

/**
 * A campaign writes only under its --out directory. Fatal on the
 * first run option that asks for an output or an image elsewhere,
 * which no campaign lease would honour.
 */
void
rejectUnhonouredOptions(const RunOptions &options)
{
    const struct
    {
        bool set;
        const char *flag;
    } unhonoured[] = {
        {options.statsEpochTicks != 0, "--stats-epoch"},
        {!options.saveCkptDir.empty(), "--save-ckpt"},
        {!options.fromCkptDir.empty(), "--from-ckpt"},
        {!options.statsOut.empty(), "--stats-out"},
        {!options.obs.traceBinPath.empty(), "--trace-bin"},
        {options.obs.traceBar != 0, "--trace-bar"},
    };
    for (const auto &[set, flag] : unhonoured) {
        if (set)
            isim_fatal("campaigns cannot honour %s: a campaign writes "
                       "only under --out; run the figure with isim-fig "
                       "for that output",
                       flag);
    }
}

} // namespace

CampaignPlan
expandCampaign(const CampaignSpec &spec, const RunOptions &options)
{
    rejectUnhonouredOptions(options);
    CampaignPlan plan;
    plan.spec = spec;
    plan.sample = options.sample;

    // Resolve figure ids like `isim-fig run` does (exact id first,
    // then prefix expansion), deduplicated in resolution order.
    const FigureRegistry &registry = FigureRegistry::instance();
    std::vector<const FigureEntry *> entries;
    std::set<std::string> seenIds;
    for (const std::string &id : spec.figures) {
        const std::vector<const FigureEntry *> matches =
            registry.resolve(id);
        if (matches.empty())
            isim_fatal("campaign '%s': unknown figure '%s'",
                       spec.name.c_str(), id.c_str());
        for (const FigureEntry *entry : matches) {
            if (seenIds.insert(entry->id).second)
                entries.push_back(entry);
        }
    }

    // Seed axis outermost, figures in resolution order inside, bars
    // in figure order innermost. With no seed axis there is exactly
    // one pass, under each bar's own (possibly --seed-overridden)
    // seed.
    std::vector<std::optional<std::uint64_t>> seedAxis;
    if (spec.seeds.empty()) {
        seedAxis.push_back(std::nullopt);
    } else {
        for (const std::uint64_t seed : spec.seeds)
            seedAxis.push_back(seed);
    }

    for (const std::optional<std::uint64_t> &seed : seedAxis) {
        for (const FigureEntry *entry : entries)
            appendFigure(plan, entry->id, entry->make(), options, seed);
    }

    // Bar names address stats ("<bar>/<stat>") in the merged
    // manifest; a clash would be unreportable.
    std::set<std::string> names;
    for (const CampaignBar &bar : plan.bars) {
        if (!names.insert(bar.name).second)
            isim_fatal("campaign '%s': duplicate bar name '%s'",
                       spec.name.c_str(), bar.name.c_str());
    }

    markAliases(plan);

    // Checkpoint groups (aliases excluded — they never run).
    std::map<std::string, std::vector<std::size_t>> byGroup;
    for (const CampaignBar &bar : plan.bars) {
        if (bar.aliasOf == kNoAlias)
            byGroup[bar.groupKey].push_back(bar.index);
    }
    for (auto &[key, members] : byGroup) {
        if (members.size() >= 2)
            plan.groups.emplace(key, std::move(members));
    }
    return plan;
}

CampaignPlan
planFigures(const std::vector<FigureSpec> &figures,
            const RunOptions &options)
{
    CampaignPlan plan;
    plan.sample = options.sample;
    plan.statsEpochTicks = options.statsEpochTicks;
    plan.saveCkptDir = options.saveCkptDir;
    plan.fromCkptDir = options.fromCkptDir;
    for (const FigureSpec &figure : figures) {
        const std::size_t first = plan.bars.size();
        appendFigure(plan, figure.id, figure, options, std::nullopt);
        if (options.obs.wantsEvents() && !figure.bars.empty()) {
            plan.bars[first + std::min(options.obs.traceBar,
                                       figure.bars.size() - 1)]
                .observed = true;
        }
    }
    markAliases(plan);

    // Images are named after the machine, and figures reuse machine
    // names for different configurations: one file would hold two.
    const std::string &ckptDir =
        plan.saveCkptDir.empty() ? plan.fromCkptDir : plan.saveCkptDir;
    std::map<std::string, const CampaignBar *> byPath;
    for (const CampaignBar &bar : plan.bars) {
        if (ckptDir.empty() || bar.aliasOf != kNoAlias)
            continue;
        const std::string path = checkpointPath(ckptDir, bar.config.name);
        const auto [it, fresh] = byPath.emplace(path, &bar);
        if (!fresh)
            isim_fatal("bars '%s' and '%s' both map to checkpoint '%s' "
                       "with different configurations; rename one, or "
                       "run them separately",
                       it->second->name.c_str(), bar.name.c_str(),
                       path.c_str());
    }
    return plan;
}

CampaignQueue::CampaignQueue(const CampaignPlan &plan,
                             const std::string &out_dir)
    : plan_(plan)
{
    state_.resize(plan.bars.size(), State::Pending);
    reason_.resize(plan.bars.size());
    tally_.total = plan.bars.size();
    for (const CampaignBar &bar : plan.bars) {
        if (bar.aliasOf != kNoAlias) {
            ++tally_.aliases;
            continue;
        }
        if (!out_dir.empty() &&
            barResultCached(barStatsPath(out_dir, bar.key), bar.key)) {
            state_[bar.index] = State::Cached;
            ++tally_.cached;
        }
    }
    for (const auto &[key, members] : plan.groups) {
        Group group;
        group.members = members;
        group.imageReady =
            std::filesystem::exists(imagePath(out_dir, key));
        groups_.emplace(key, std::move(group));
    }
}

std::size_t
CampaignQueue::resolveAlias(std::size_t index) const
{
    const std::size_t primary = plan_.bars[index].aliasOf;
    return primary == kNoAlias ? index : primary;
}

CampaignQueue::Group *
CampaignQueue::groupOf(std::size_t index)
{
    const auto it = groups_.find(plan_.bars[index].groupKey);
    return it == groups_.end() ? nullptr : &it->second;
}

std::optional<Lease>
CampaignQueue::next()
{
    for (const CampaignBar &bar : plan_.bars) {
        const std::size_t i = bar.index;
        if (bar.aliasOf != kNoAlias)
            continue;
        Group *group = groupOf(i);
        if (group == nullptr) {
            if (state_[i] == State::Pending) {
                state_[i] = State::Leased;
                return Lease{i, LeaseMode::Cold};
            }
            continue;
        }
        const bool builder = group->members.front() == i;
        if (builder) {
            if (state_[i] == State::Pending) {
                state_[i] = State::Leased;
                return Lease{i, group->imageReady
                                    ? LeaseMode::Restore
                                    : LeaseMode::Build};
            }
            // A cached builder with members still waiting on a
            // missing image regenerates it without re-measuring.
            if (state_[i] == State::Cached && !group->imageReady &&
                !group->imageLeased) {
                bool pendingMember = false;
                for (const std::size_t m : group->members)
                    pendingMember |= state_[m] == State::Pending;
                if (pendingMember) {
                    group->imageLeased = true;
                    return Lease{i, LeaseMode::ImageOnly};
                }
            }
            continue;
        }
        // Non-builder members measure from the image only: a cold
        // run would warm under different latencies and produce a
        // result the campaign could never reproduce on resume.
        if (state_[i] == State::Pending && group->imageReady) {
            state_[i] = State::Leased;
            return Lease{i, LeaseMode::Restore};
        }
    }
    return std::nullopt;
}

void
CampaignQueue::complete(const Lease &lease)
{
    Group *group = groupOf(lease.index);
    if (lease.mode == LeaseMode::ImageOnly) {
        isim_assert(group != nullptr);
        group->imageReady = true;
        group->imageLeased = false;
        ++tally_.imagesBuilt;
        return;
    }
    isim_assert(state_[lease.index] == State::Leased,
                "completing a lease that is not out");
    state_[lease.index] = State::Done;
    ++tally_.ran;
    switch (lease.mode) {
      case LeaseMode::Build:
        isim_assert(group != nullptr);
        group->imageReady = true;
        ++tally_.imagesBuilt;
        break;
      case LeaseMode::Restore:
        ++tally_.imagesRestored;
        break;
      case LeaseMode::Cold:
        ++tally_.coldRuns;
        break;
      case LeaseMode::ImageOnly:
        break; // handled above
    }
}

void
CampaignQueue::fail(const Lease &lease, const std::string &reason)
{
    Group *group = groupOf(lease.index);
    if (lease.mode == LeaseMode::ImageOnly) {
        isim_assert(group != nullptr);
        group->imageLeased = false;
        // The builder keeps its cached result; only the members
        // waiting on the image are lost.
        cascadeFail(*group, "warm image build failed: " + reason);
        return;
    }
    isim_assert(state_[lease.index] == State::Leased,
                "failing a lease that is not out");
    state_[lease.index] = State::Failed;
    reason_[lease.index] = reason;
    ++tally_.failed;
    if (lease.mode == LeaseMode::Build) {
        isim_assert(group != nullptr);
        cascadeFail(*group, "warm image build failed: " + reason);
    }
}

void
CampaignQueue::cascadeFail(Group &group, const std::string &reason)
{
    for (const std::size_t m : group.members) {
        if (state_[m] != State::Pending)
            continue;
        state_[m] = State::Failed;
        reason_[m] = reason;
        ++tally_.failed;
    }
}

bool
CampaignQueue::finished() const
{
    for (const CampaignBar &bar : plan_.bars) {
        if (bar.aliasOf != kNoAlias)
            continue;
        const State st = state_[bar.index];
        if (st == State::Pending || st == State::Leased)
            return false;
    }
    return true;
}

bool
CampaignQueue::barOk(std::size_t index) const
{
    const State st = state_[resolveAlias(index)];
    return st == State::Cached || st == State::Done;
}

const std::string &
CampaignQueue::failReason(std::size_t index) const
{
    return reason_[resolveAlias(index)];
}

} // namespace campaign
} // namespace isim
