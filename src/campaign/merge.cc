/**
 * @file
 * Campaign manifest merge.
 */

#include "src/campaign/merge.hh"

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/stats/manifest.hh"

namespace isim {
namespace campaign {

namespace {

JsonValue
makeString(const std::string &text)
{
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    v.text = text;
    return v;
}

JsonValue
makeNumber(double number)
{
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = number;
    return v;
}

/**
 * The bar's "meta" object for the merged document. Every member is
 * deterministic, so campaign.json stays byte-stable across resumes.
 */
JsonValue
makeMeta(const CampaignBar &bar, const BarStatus &status,
         double sim_wall_ms, const stats::BarMeta *file_meta)
{
    JsonValue meta;
    meta.kind = JsonValue::Kind::Object;
    meta.members.emplace_back("key", makeString(bar.key));
    meta.members.emplace_back("config_digest",
                              makeString(bar.configDigest));
    meta.members.emplace_back("seed",
                              makeNumber(static_cast<double>(bar.seed)));
    meta.members.emplace_back("schema_version",
                              makeNumber(stats::kManifestVersion));
    if (sim_wall_ms >= 0.0)
        meta.members.emplace_back("sim_wall_ms",
                                  makeNumber(sim_wall_ms));
    // The sampling-schedule echo rides along from the cached bar
    // file (deterministic, so byte-stability is preserved).
    if (file_meta != nullptr && !file_meta->sampleMode.empty()) {
        meta.members.emplace_back("sample_mode",
                                  makeString(file_meta->sampleMode));
        meta.members.emplace_back(
            "sample_ff",
            makeNumber(static_cast<double>(file_meta->sampleFf)));
        meta.members.emplace_back(
            "sample_measure",
            makeNumber(static_cast<double>(file_meta->sampleMeasure)));
        meta.members.emplace_back(
            "sample_warm",
            makeNumber(static_cast<double>(file_meta->sampleWarm)));
        meta.members.emplace_back(
            "sample_windows",
            makeNumber(static_cast<double>(file_meta->sampleWindows)));
    }
    meta.members.emplace_back(
        "status", makeString(status.ok ? "ok" : "failed"));
    if (!status.ok && !status.reason.empty())
        meta.members.emplace_back("reason",
                                  makeString(status.reason));
    return meta;
}

} // namespace

std::string
mergeCampaignJson(const CampaignPlan &plan, const std::string &out_dir,
                  const std::vector<BarStatus> &status)
{
    isim_assert(status.size() == plan.bars.size(),
                "one status per bar");

    std::string out;
    out += "{\n";
    out += "  \"schema\": \"";
    out += stats::kManifestSchema;
    out += "\",\n  \"version\": ";
    out += std::to_string(stats::kManifestVersion);
    out += ",\n  \"figure\": \"";
    out += jsonEscape(plan.spec.name);
    out += "\",\n  \"title\": \"campaign\",\n  \"bars\": [\n";

    for (const CampaignBar &bar : plan.bars) {
        const BarStatus &st = status[bar.index];
        double simWallMs = -1.0;
        stats::BarMeta fileMeta;
        bool haveMeta = false;
        JsonValue statsObj;
        statsObj.kind = JsonValue::Kind::Object;
        JsonValue samplingObj;
        bool haveSampling = false;
        if (st.ok) {
            // Aliases read the same key file as their primary.
            const std::string path = barStatsPath(out_dir, bar.key);
            JsonValue doc;
            std::string err;
            if (!jsonParse(readFileOrDie(path), doc, &err))
                isim_fatal("campaign merge: %s: %s", path.c_str(),
                           err.c_str());
            const std::vector<stats::BarMetaView> meta =
                stats::manifestMeta(doc);
            if (meta.empty() || meta.front().meta.key != bar.key)
                isim_fatal("campaign merge: %s does not hold key %s",
                           path.c_str(), bar.key.c_str());
            simWallMs = meta.front().meta.simWallMs;
            fileMeta = meta.front().meta;
            haveMeta = true;
            const JsonValue &bars = doc.at("bars");
            isim_assert(bars.isArray() && !bars.array.empty());
            statsObj = bars.array.front().at("stats");
            if (const JsonValue *s =
                    bars.array.front().get("sampling")) {
                samplingObj = *s;
                haveSampling = true;
            }
        }

        JsonValue barObj;
        barObj.kind = JsonValue::Kind::Object;
        barObj.members.emplace_back("name", makeString(bar.name));
        barObj.members.emplace_back(
            "meta", makeMeta(bar, st, simWallMs,
                             haveMeta ? &fileMeta : nullptr));
        barObj.members.emplace_back("stats", std::move(statsObj));
        if (haveSampling)
            barObj.members.emplace_back("sampling",
                                        std::move(samplingObj));

        out += "    ";
        out += jsonToText(barObj);
        out += bar.index + 1 < plan.bars.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";

    std::string err;
    if (!jsonValidate(out, &err))
        isim_panic("campaign merge emitted invalid JSON: %s",
                   err.c_str());
    return out;
}

} // namespace campaign
} // namespace isim
