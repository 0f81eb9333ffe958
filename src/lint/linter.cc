#include "src/lint/linter.hh"

#include <algorithm>
#include <map>
#include <tuple>

namespace isim {
namespace lint {

std::vector<Finding>
Linter::run() const
{
    std::vector<Finding> findings;
    for (const SourceFile &file : files_) {
        checks::determinism(file, findings);
        checks::logging(file, findings);
        checks::suppressions(file, findings);
    }
    checks::orderedOutput(files_, findings);
    checks::ckptCoverage(files_, findings);
    checks::statsCoverage(files_, findings);

    // Apply allow() suppressions. The `suppression` meta rule is
    // exempt: annotations cannot vouch for themselves.
    std::map<std::string, const SourceFile *> by_path;
    for (const SourceFile &file : files_)
        by_path[file.path()] = &file;
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding &f : findings) {
        const auto it = by_path.find(f.path);
        if (f.rule != "suppression" && it != by_path.end() &&
            it->second->suppressed(f.rule, f.line))
            continue;
        kept.push_back(std::move(f));
    }

    std::sort(kept.begin(), kept.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.path, a.line, a.rule, a.message) <
                         std::tie(b.path, b.line, b.rule, b.message);
              });
    kept.erase(std::unique(kept.begin(), kept.end(),
                           [](const Finding &a, const Finding &b) {
                               return a.path == b.path &&
                                      a.line == b.line &&
                                      a.rule == b.rule &&
                                      a.message == b.message;
                           }),
               kept.end());
    return kept;
}

const std::vector<RuleInfo> &
Linter::rules()
{
    static const std::vector<RuleInfo> kRules = {
        {"determinism",
         "no ambient entropy, wall-clock, or getenv in simulation "
         "code",
         "getenv() is banned everywhere (run options are command-line "
         "flags, resolved once by RunOptions); rand(), "
         "std::random_device, std engines, time(), system_clock and "
         "friends are banned everywhere except src/base/random.* — "
         "every stochastic or time-like input must flow through an "
         "explicitly seeded isim::Rng so runs are reproducible "
         "bit-for-bit."},
        {"ordered-output",
         "no unordered-container iteration in serialization or "
         "reporting paths",
         "Inside src/ckpt/, src/core/report.cc, src/stats/manifest.cc "
         "and src/obs/export.cc, and inside any saveState/"
         "restoreState body, iterating a std::unordered_map/set "
         "emits hash-order bytes and silently breaks bit-exact "
         "checkpoints and --jobs determinism. Sort the keys first "
         "(see sortedKeys in src/os/vm.cc) or annotate the loop."},
        {"ckpt-coverage",
         "every data member of a checkpointed class is serialized "
         "or declared transient",
         "For each class declaring saveState(ckpt::Serializer&), "
         "every non-static, non-reference, non-const data member "
         "must be mentioned in its saveState or restoreState body, "
         "or carry `// ckpt: transient(<member>)` in the class's "
         "file. A new field that misses the image restores "
         "stale/default state without any runtime error."},
        {"stats-coverage",
         "every *Stats / *Counters member is registered in the stats "
         "registry",
         "Members of structs named *Stats or *Counters must appear "
         "in that struct's registerStats body or in "
         "Machine::buildRegistry; otherwise the counter is invisible "
         "to stats.json manifests, isim-stat diff, and the "
         "conservation identities built on them."},
        {"logging",
         "no bare stdio in library code",
         "printf/fprintf/std::cout/std::cerr are allowed only in "
         "src/base/logging.* and outside src/ (CLI mains, examples, "
         "tests). Library diagnostics go through isim_inform/"
         "isim_warn so --quiet and test harnesses stay authoritative."},
        {"suppression",
         "every allow() carries a rule id and a reason",
         "`// isim-lint: allow(<rule>): <reason>` suppresses that "
         "rule on the same or the next line. A missing reason, an "
         "unknown rule id, or a malformed annotation is itself a "
         "finding, and this meta rule cannot be suppressed."},
    };
    return kRules;
}

std::string
Linter::format(const Finding &finding)
{
    return finding.path + ":" + std::to_string(finding.line) + ": [" +
           finding.rule + "] " + finding.message;
}

} // namespace lint
} // namespace isim
