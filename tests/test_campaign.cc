/**
 * @file
 * Campaign orchestrator tests: spec validation, plan expansion (seed
 * axis, checkpoint groups, content keys), the lease state machine
 * (gating, cascade failure, image regeneration), META echo plumbing,
 * and the end-to-end contract of the threaded executor — the
 * lease-thread count and an interrupt + resume never change a byte of
 * campaign.json, and a corrupt warm image fails exactly the bars that
 * restore from it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/queue.hh"
#include "src/campaign/spec.hh"
#include "src/campaign/supervisor.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/core/experiment.hh"
#include "src/stats/manifest.hh"

namespace isim {
namespace {

std::string
freshDir(const std::string &stem)
{
    const std::string dir = ::testing::TempDir() + "/" + stem;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeFile(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out << contents;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

campaign::CampaignSpec
specFromText(const std::string &text)
{
    JsonValue doc;
    std::string err;
    if (!jsonParse(text, doc, &err))
        isim_panic("test spec does not parse: %s", err.c_str());
    return campaign::campaignSpecFromJson(doc);
}

TEST(CampaignSpec, ParsesAFullDocument)
{
    const campaign::CampaignSpec spec = specFromText(
        R"({"schema": "isim-campaign", "version": 1, "name": "smoke",
            "figures": ["fig10-uni", "fig05"], "seeds": [3, 4],
            "txns": 40, "warmup": 10})");
    EXPECT_EQ(spec.name, "smoke");
    ASSERT_EQ(spec.figures.size(), 2u);
    EXPECT_EQ(spec.figures[0], "fig10-uni");
    ASSERT_EQ(spec.seeds.size(), 2u);
    EXPECT_EQ(spec.seeds[1], 4u);
    ASSERT_TRUE(spec.txns.has_value());
    EXPECT_EQ(*spec.txns, 40u);
    ASSERT_TRUE(spec.warmup.has_value());
    EXPECT_EQ(*spec.warmup, 10u);
}

TEST(CampaignSpec, SeedsAndCountsAreOptional)
{
    const campaign::CampaignSpec spec = specFromText(
        R"({"schema": "isim-campaign", "version": 1, "name": "n",
            "figures": ["fig05"]})");
    EXPECT_TRUE(spec.seeds.empty());
    EXPECT_FALSE(spec.txns.has_value());
    EXPECT_FALSE(spec.warmup.has_value());
}

TEST(CampaignSpec, SchemaViolationsAreFatal)
{
    ScopedPanicThrow guard;
    const char *bad[] = {
        // wrong schema
        R"({"schema": "isim-stats", "version": 1, "name": "n",
            "figures": ["fig05"]})",
        // wrong version
        R"({"schema": "isim-campaign", "version": 2, "name": "n",
            "figures": ["fig05"]})",
        // empty name
        R"({"schema": "isim-campaign", "version": 1, "name": "",
            "figures": ["fig05"]})",
        // empty figure list
        R"({"schema": "isim-campaign", "version": 1, "name": "n",
            "figures": []})",
        // duplicate seeds
        R"({"schema": "isim-campaign", "version": 1, "name": "n",
            "figures": ["fig05"], "seeds": [3, 3]})",
        // zero measured transactions
        R"({"schema": "isim-campaign", "version": 1, "name": "n",
            "figures": ["fig05"], "txns": 0})",
        // unknown key (typo protection: a misspelled knob must not
        // silently fall back to defaults)
        R"({"schema": "isim-campaign", "version": 1, "name": "n",
            "figures": ["fig05"], "sedes": [3]})",
    };
    for (const char *text : bad)
        EXPECT_THROW(specFromText(text), PanicError) << text;
}

// ---------------------------------------------------------------------
// Plan expansion
// ---------------------------------------------------------------------

RunOptions
quickOptions()
{
    RunOptions options;
    options.txns = 20;
    options.warmup = 5;
    options.verbose = false;
    return options;
}

TEST(CampaignExpand, SeedAxisIsOutermostAndGroupsFormPerSeed)
{
    const campaign::CampaignSpec spec = specFromText(
        R"({"schema": "isim-campaign", "version": 1, "name": "t",
            "figures": ["fig10-uni"], "seeds": [3, 4]})");
    const campaign::CampaignPlan plan =
        campaign::expandCampaign(spec, quickOptions());

    // fig10-uni has three bars; two seeds double them, seed-major.
    ASSERT_EQ(plan.bars.size(), 6u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(plan.bars[i].seed, 3u) << i;
        EXPECT_NE(plan.bars[i].name.find("@s3"), std::string::npos);
    }
    for (std::size_t i = 3; i < 6; ++i)
        EXPECT_EQ(plan.bars[i].seed, 4u) << i;

    // Every cell gets a distinct content key (so no aliases here),
    // and the key echoes the configuration digest convention.
    std::set<std::string> keys;
    for (const campaign::CampaignBar &bar : plan.bars) {
        EXPECT_TRUE(keys.insert(bar.key).second) << bar.name;
        EXPECT_EQ(bar.key.size(), 16u);
        EXPECT_EQ(bar.aliasOf, campaign::kNoAlias);
        const std::vector<std::uint8_t> bytes =
            ckpt::configBytes(bar.config);
        EXPECT_EQ(bar.key, stats::resultKey(bytes, bar.seed));
        EXPECT_EQ(bar.configDigest, stats::configDigest(bytes));
    }

    // The L2/L2+MC pair shares a warm image per seed (the Base bar
    // has its own cache geometry and stays a singleton), and the
    // builder is the earliest member.
    ASSERT_EQ(plan.groups.size(), 2u);
    for (const auto &[key, members] : plan.groups) {
        ASSERT_EQ(members.size(), 2u) << key;
        EXPECT_LT(members[0], members[1]);
        EXPECT_EQ(plan.bars[members[0]].groupKey,
                  plan.bars[members[1]].groupKey);
        EXPECT_EQ(plan.bars[members[0]].seed,
                  plan.bars[members[1]].seed);
    }
}

TEST(CampaignExpand, GroupKeyIgnoresExactlyTheRestoreOverrides)
{
    const campaign::CampaignSpec spec = specFromText(
        R"({"schema": "isim-campaign", "version": 1, "name": "t",
            "figures": ["fig10-uni"]})");
    const campaign::CampaignPlan plan =
        campaign::expandCampaign(spec, quickOptions());
    ASSERT_EQ(plan.groups.size(), 1u);
    const std::vector<std::size_t> &members =
        plan.groups.begin()->second;
    const campaign::CampaignBar &a = plan.bars[members[0]];
    const campaign::CampaignBar &b = plan.bars[members[1]];
    // Same warm image, different measurement cell.
    EXPECT_EQ(a.groupKey, b.groupKey);
    EXPECT_NE(a.key, b.key);
    // A different seed must split the group: the warm image bakes
    // the workload state in.
    MachineConfig reseeded = a.config;
    reseeded.workload.seed += 1;
    EXPECT_NE(campaign::warmGroupKey(reseeded), a.groupKey);
    EXPECT_EQ(campaign::warmGroupKey(a.config), a.groupKey);
}

TEST(CampaignExpand, UnknownFigureIsFatal)
{
    ScopedPanicThrow guard;
    const campaign::CampaignSpec spec = specFromText(
        R"({"schema": "isim-campaign", "version": 1, "name": "t",
            "figures": ["no-such-figure"]})");
    EXPECT_THROW(campaign::expandCampaign(spec, quickOptions()),
                 PanicError);
}

// ---------------------------------------------------------------------
// Lease state machine
// ---------------------------------------------------------------------

/**
 * A hand-built three-bar plan: bar 0 a singleton, bars 1+2 a
 * checkpoint group with bar 1 as builder. Keys are fabricated — the
 * queue only ever treats them as cache-file names.
 */
campaign::CampaignPlan
syntheticPlan()
{
    campaign::CampaignPlan plan;
    const char *keys[] = {"k0", "k1", "k2"};
    const char *groups[] = {"g-solo", "g-pair", "g-pair"};
    for (std::size_t i = 0; i < 3; ++i) {
        campaign::CampaignBar bar;
        bar.index = i;
        bar.name = "bar" + std::to_string(i);
        bar.key = keys[i];
        bar.groupKey = groups[i];
        plan.bars.push_back(std::move(bar));
    }
    plan.groups.emplace("g-pair", std::vector<std::size_t>{1, 2});
    return plan;
}

TEST(CampaignQueue, MembersAreGatedOnTheImageBuild)
{
    const std::string dir = freshDir("campaign_queue_gate");
    const campaign::CampaignPlan plan = syntheticPlan();
    campaign::CampaignQueue queue(plan, dir);

    // Index order: the singleton leases Cold, the builder Build; the
    // member must wait for the image.
    const auto first = queue.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->index, 0u);
    EXPECT_EQ(first->mode, campaign::LeaseMode::Cold);
    const auto second = queue.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->index, 1u);
    EXPECT_EQ(second->mode, campaign::LeaseMode::Build);
    EXPECT_FALSE(queue.next().has_value());
    EXPECT_FALSE(queue.finished());

    queue.complete(*second);
    const auto third = queue.next();
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->index, 2u);
    EXPECT_EQ(third->mode, campaign::LeaseMode::Restore);
    queue.complete(*third);
    queue.complete(*first);

    EXPECT_TRUE(queue.finished());
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(queue.barOk(i)) << i;
    const campaign::CampaignTally &tally = queue.tally();
    EXPECT_EQ(tally.ran, 3u);
    EXPECT_EQ(tally.coldRuns, 1u);
    EXPECT_EQ(tally.imagesBuilt, 1u);
    EXPECT_EQ(tally.imagesRestored, 1u);
    EXPECT_EQ(tally.failed, 0u);
}

TEST(CampaignQueue, BuildFailureCascadesToWaitingMembers)
{
    const std::string dir = freshDir("campaign_queue_cascade");
    const campaign::CampaignPlan plan = syntheticPlan();
    campaign::CampaignQueue queue(plan, dir);

    const auto solo = queue.next();
    const auto build = queue.next();
    ASSERT_TRUE(build.has_value());
    ASSERT_EQ(build->mode, campaign::LeaseMode::Build);
    queue.fail(*build, "simulated panic");
    // The member never becomes leasable: it is failed with a reason
    // pointing at the image build.
    EXPECT_FALSE(queue.next().has_value());
    EXPECT_FALSE(queue.barOk(1));
    EXPECT_FALSE(queue.barOk(2));
    EXPECT_NE(queue.failReason(2).find("warm image build failed"),
              std::string::npos);
    queue.complete(*solo);
    EXPECT_TRUE(queue.finished());
    EXPECT_EQ(queue.tally().failed, 2u);
}

/** A minimal cached bar manifest the cache scan accepts for `key`. */
std::string
cachedBarManifest(const std::string &key)
{
    stats::Manifest m;
    m.figure = "test";
    m.title = "campaign cell";
    stats::ManifestBar bar;
    bar.name = "bar";
    bar.meta.present = true;
    bar.meta.key = key;
    bar.meta.configDigest = "0000000000000000";
    bar.meta.seed = 1;
    m.bars.push_back(std::move(bar));
    return stats::manifestToJson(m);
}

TEST(CampaignQueue, CachedBuilderWithMissingImageRegeneratesIt)
{
    const std::string dir = freshDir("campaign_queue_imageonly");
    std::filesystem::create_directories(dir + "/bars");
    const campaign::CampaignPlan plan = syntheticPlan();
    // Builder result cached; no warm image on disk; member pending.
    campaign::writeFileAtomic(campaign::barStatsPath(dir, "k1"),
                              cachedBarManifest("k1"));
    campaign::CampaignQueue queue(plan, dir);
    EXPECT_EQ(queue.tally().cached, 1u);

    const auto solo = queue.next();
    ASSERT_TRUE(solo.has_value());
    EXPECT_EQ(solo->index, 0u);
    // The builder is not re-measured — just its warm-up replayed.
    const auto image = queue.next();
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->index, 1u);
    EXPECT_EQ(image->mode, campaign::LeaseMode::ImageOnly);
    // Only one ImageOnly lease goes out at a time.
    EXPECT_FALSE(queue.next().has_value());
    queue.complete(*image);
    const auto member = queue.next();
    ASSERT_TRUE(member.has_value());
    EXPECT_EQ(member->index, 2u);
    EXPECT_EQ(member->mode, campaign::LeaseMode::Restore);
}

TEST(CampaignQueue, ExistingImageLetsEveryMemberRestore)
{
    const std::string dir = freshDir("campaign_queue_image_present");
    std::filesystem::create_directories(dir + "/ckpt");
    writeFile(campaign::imagePath(dir, "g-pair"), "placeholder");
    const campaign::CampaignPlan plan = syntheticPlan();
    campaign::CampaignQueue queue(plan, dir);

    queue.next(); // singleton
    const auto builder = queue.next();
    ASSERT_TRUE(builder.has_value());
    EXPECT_EQ(builder->mode, campaign::LeaseMode::Restore);
    const auto member = queue.next();
    ASSERT_TRUE(member.has_value());
    EXPECT_EQ(member->mode, campaign::LeaseMode::Restore);
}

TEST(CampaignCache, HalfWrittenOrMismatchedFilesAreNotHits)
{
    const std::string dir = freshDir("campaign_cache");
    std::filesystem::create_directories(dir + "/bars");
    const std::string path = campaign::barStatsPath(dir, "kX");
    EXPECT_FALSE(campaign::barResultCached(path, "kX")); // absent
    writeFile(path, "{\"schema\": \"isim-st");            // truncated
    EXPECT_FALSE(campaign::barResultCached(path, "kX"));
    writeFile(path, cachedBarManifest("other-key"));      // stale
    EXPECT_FALSE(campaign::barResultCached(path, "kX"));
    writeFile(path, cachedBarManifest("kX"));
    EXPECT_TRUE(campaign::barResultCached(path, "kX"));
}

// ---------------------------------------------------------------------
// META echo
// ---------------------------------------------------------------------

TEST(ManifestMeta, RoundTripsThroughTheManifestJson)
{
    stats::Manifest m;
    m.figure = "f";
    m.title = "t";
    stats::ManifestBar bar;
    bar.name = "cell";
    bar.meta.present = true;
    bar.meta.key = "00112233aabbccdd";
    bar.meta.configDigest = "deadbeefcafef00d";
    bar.meta.seed = 9;
    bar.meta.simWallMs = 12.5;
    bar.meta.status = "ok";
    m.bars.push_back(bar);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(stats::manifestToJson(m), doc, &err)) << err;
    const std::vector<stats::BarMetaView> meta =
        stats::manifestMeta(doc);
    ASSERT_EQ(meta.size(), 1u);
    EXPECT_EQ(meta[0].bar, "cell");
    EXPECT_EQ(meta[0].meta.key, bar.meta.key);
    EXPECT_EQ(meta[0].meta.configDigest, bar.meta.configDigest);
    EXPECT_EQ(meta[0].meta.seed, 9u);
    EXPECT_EQ(meta[0].meta.status, "ok");
    EXPECT_DOUBLE_EQ(meta[0].meta.simWallMs, 12.5);
    // META is identity, not measurement: it must never leak into the
    // flattened stat rows a diff compares.
    EXPECT_TRUE(stats::flattenManifest(doc).empty());
}

TEST(ManifestMeta, ParsesLegacyVersion1WallMsKey)
{
    // Version-1 manifests spelled the simulated wall time "wall_ms";
    // old bar files on disk must keep parsing into simWallMs. The
    // retired host-time "host_wall_ms" key is ignored.
    const std::string legacy =
        "{\"schema\": \"isim-stats\", \"version\": 1,\n"
        " \"figure\": \"f\", \"title\": \"t\", \"bars\": [\n"
        "  {\"name\": \"cell\", \"meta\": {\"key\": \"k1\",\n"
        "    \"config_digest\": \"d1\", \"seed\": 7,\n"
        "    \"schema_version\": 1, \"wall_ms\": 42.5,\n"
        "    \"host_wall_ms\": 3.25,\n"
        "    \"status\": \"ok\"}, \"stats\": {}}\n"
        "]}\n";
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(legacy, doc, &err)) << err;
    const std::vector<stats::BarMetaView> meta =
        stats::manifestMeta(doc);
    ASSERT_EQ(meta.size(), 1u);
    EXPECT_DOUBLE_EQ(meta[0].meta.simWallMs, 42.5);
    EXPECT_EQ(meta[0].meta.status, "ok");
}

TEST(RunnerMeta, RunMachineStampsTheContentAddress)
{
    MachineConfig cfg;
    cfg.name = "meta-echo";
    cfg.numCpus = 1;
    cfg.workload.branches = 4;
    cfg.workload.accountsPerBranch = 5000;
    cfg.workload.transactions = 15;
    cfg.workload.warmupTransactions = 5;
    cfg.workload.seed = 11;

    RunOptions options;
    options.verbose = false;
    options.jobs = 1;
    FigureSpec spec;
    spec.bars.push_back({cfg, std::nullopt, std::nullopt});
    const RunResult r = runFigures({spec}, options).front().runs.front();

    const std::vector<std::uint8_t> bytes = ckpt::configBytes(cfg);
    EXPECT_EQ(r.resultKey, stats::resultKey(bytes, 11));
    EXPECT_EQ(r.configDigest, stats::configDigest(bytes));
    EXPECT_EQ(r.seed, 11u);
}

// ---------------------------------------------------------------------
// End to end: interrupt + resume == uninterrupted (byte-identical)
// ---------------------------------------------------------------------

TEST(CampaignEndToEnd, InterruptedResumeMatchesUninterruptedByteForByte)
{
    const std::string base = freshDir("campaign_e2e");
    const std::string specPath = base + "/spec.json";
    writeFile(specPath,
              R"({"schema": "isim-campaign", "version": 1,
                  "name": "e2e", "figures": ["fig10-uni"],
                  "seeds": [5]})");

    campaign::CampaignRunConfig run;
    run.specPath = specPath;
    run.options = quickOptions();

    // Reference: one uninterrupted in-process run.
    run.outDir = base + "/ref";
    ASSERT_EQ(campaign::runCampaign(run), 0);
    const std::string reference = slurp(run.outDir + "/campaign.json");
    ASSERT_FALSE(reference.empty());

    // Interrupted run: stop after one lease completion (exit 3, no
    // merged manifest), leaving that cell in the cache...
    run.outDir = base + "/resumed";
    run.stopAfter = 1;
    ASSERT_EQ(campaign::runCampaign(run), 3);
    EXPECT_FALSE(
        std::filesystem::exists(run.outDir + "/campaign.json"));
    std::size_t cachedCells = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             run.outDir + "/bars")) {
        (void)entry;
        ++cachedCells;
    }
    EXPECT_GE(cachedCells, 1u);

    // ...then resume to completion: the cached cell is skipped and
    // the merged manifest must match the uninterrupted run exactly.
    run.stopAfter = -1;
    ASSERT_EQ(campaign::runCampaign(run), 0);
    EXPECT_EQ(slurp(run.outDir + "/campaign.json"), reference);

    // The merged manifest is a regular isim-stats document with a
    // META block per cell, every cell ok.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(reference, doc, &err)) << err;
    const std::vector<stats::BarMetaView> meta =
        stats::manifestMeta(doc);
    ASSERT_EQ(meta.size(), 3u);
    for (const stats::BarMetaView &view : meta)
        EXPECT_EQ(view.meta.status, "ok") << view.bar;
    EXPECT_FALSE(stats::flattenManifest(doc).empty());
}

TEST(CampaignEndToEnd, SpecDriftOnResumeIsFatal)
{
    ScopedPanicThrow guard;
    const std::string base = freshDir("campaign_drift");
    const std::string specPath = base + "/spec.json";
    writeFile(specPath,
              R"({"schema": "isim-campaign", "version": 1,
                  "name": "drift", "figures": ["fig10-uni"],
                  "seeds": [5]})");

    campaign::CampaignRunConfig run;
    run.specPath = specPath;
    run.options = quickOptions();
    run.outDir = base + "/out";
    run.stopAfter = 0; // touch the directory, run nothing
    ASSERT_EQ(campaign::runCampaign(run), 3);

    // Editing the spec between sessions invalidates the directory:
    // the cached cells were computed under different inputs.
    writeFile(specPath,
              R"({"schema": "isim-campaign", "version": 1,
                  "name": "drift", "figures": ["fig10-uni"],
                  "seeds": [6]})");
    EXPECT_THROW(campaign::runCampaign(run), PanicError);
}

// ---------------------------------------------------------------------
// The threaded executor: same bytes at any --jobs, failures contained
// ---------------------------------------------------------------------

/** The CI smoke spec: two figures, two seeds, four warm-image groups. */
constexpr const char *kSmokeSpec =
    R"({"schema": "isim-campaign", "version": 1, "name": "smoke",
        "figures": ["fig10-uni", "fig10-mp"], "seeds": [3, 4]})";

/** Bar name -> META "reason" of every failed bar in a campaign.json. */
std::map<std::string, std::string>
failedBars(const std::string &campaign_json)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(jsonParse(campaign_json, doc, &err)) << err;
    std::map<std::string, std::string> failed;
    const JsonValue *bars = doc.get("bars");
    if (bars == nullptr)
        return failed;
    for (const JsonValue &bar : bars->array) {
        const JsonValue &meta = bar.at("meta");
        if (meta.at("status").text == "failed") {
            const JsonValue *reason = meta.get("reason");
            failed[bar.at("name").text] =
                reason != nullptr ? reason->text : "";
        }
    }
    return failed;
}

TEST(CampaignEndToEnd, JobCountAndResumeDoNotChangeTheBytes)
{
    const std::string base = freshDir("campaign_jobs");
    const std::string specPath = base + "/spec.json";
    writeFile(specPath, kSmokeSpec);

    campaign::CampaignRunConfig run;
    run.specPath = specPath;
    run.options = quickOptions();

    // Reference: one lease thread. Its summary line proves the warm
    // images were restored, not just built.
    run.outDir = base + "/ref";
    run.options.jobs = 1;
    ::testing::internal::CaptureStderr();
    const int refRc = campaign::runCampaign(run);
    const std::string refLog = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(refRc, 0) << refLog;
    EXPECT_EQ(refLog.find("restored=0"), std::string::npos) << refLog;
    EXPECT_NE(refLog.find("restored="), std::string::npos) << refLog;
    const std::string reference = slurp(run.outDir + "/campaign.json");
    ASSERT_FALSE(reference.empty());

    run.outDir = base + "/jobs4";
    run.options.jobs = 4;
    ASSERT_EQ(campaign::runCampaign(run), 0);
    EXPECT_EQ(slurp(run.outDir + "/campaign.json"), reference);

    // Interrupted at three threads, resumed at two.
    run.outDir = base + "/resumed";
    run.options.jobs = 3;
    run.stopAfter = 2;
    ASSERT_EQ(campaign::runCampaign(run), 3);
    EXPECT_FALSE(
        std::filesystem::exists(run.outDir + "/campaign.json"));
    run.options.jobs = 2;
    run.stopAfter = -1;
    ASSERT_EQ(campaign::runCampaign(run), 0);
    EXPECT_EQ(slurp(run.outDir + "/campaign.json"), reference);
}

TEST(CampaignEndToEnd, CorruptWarmImageFailsOnlyItsGroup)
{
    const std::string base = freshDir("campaign_corrupt");
    const std::string specPath = base + "/spec.json";
    writeFile(specPath, kSmokeSpec);

    campaign::CampaignRunConfig run;
    run.specPath = specPath;
    run.options = quickOptions();

    // The first fig10-mp warm-image group (seed 3's ladder).
    const campaign::CampaignPlan plan = campaign::expandCampaign(
        campaign::loadCampaignSpec(specPath), run.options);
    std::string corrupt;
    for (const campaign::CampaignBar &bar : plan.bars) {
        if (bar.figureId == "fig10-mp" && plan.groups.count(bar.groupKey)) {
            corrupt = bar.groupKey;
            break;
        }
    }
    ASSERT_FALSE(corrupt.empty());
    std::set<std::string> expected;
    for (const campaign::CampaignBar &bar : plan.bars) {
        if (bar.groupKey == corrupt)
            expected.insert(bar.name);
    }
    ASSERT_GE(expected.size(), 2u);

    std::vector<std::set<std::string>> failedSets;
    for (const unsigned jobs : {4u, 1u}) {
        run.outDir = base + "/jobs" + std::to_string(jobs);
        run.options.jobs = jobs;
        std::filesystem::create_directories(run.outDir + "/ckpt");
        writeFile(campaign::imagePath(run.outDir, corrupt),
                  "not a warm image\n");
        ASSERT_EQ(campaign::runCampaign(run), 2) << "jobs " << jobs;

        const std::string merged = slurp(run.outDir + "/campaign.json");
        std::set<std::string> failed;
        for (const auto &[name, reason] : failedBars(merged)) {
            failed.insert(name);
            EXPECT_NE(reason.find("checkpoint"), std::string::npos)
                << name << ": " << reason;
        }
        EXPECT_EQ(failed, expected) << "jobs " << jobs;
        JsonValue doc;
        ASSERT_TRUE(jsonParse(merged, doc, nullptr));
        EXPECT_EQ(stats::manifestMeta(doc).size(), plan.bars.size());
        failedSets.push_back(failed);
    }
    EXPECT_EQ(failedSets[0], failedSets[1]);
}

} // namespace
} // namespace isim
