/**
 * @file
 * isim-lint tests: one positive (violating) and one negative (clean)
 * fixture per rule family, suppression semantics, cross-file
 * checkpoint coverage, path scoping, the rule catalogue, and
 * deterministic finding order. On-disk fixtures live in
 * tests/lint_fixtures/ (skipped by the CLI's directory walk so the
 * deliberate violations never fail the tree-wide gate).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/lint/linter.hh"

namespace isim {
namespace lint {
namespace {

std::string
fixturePath(const char *name)
{
    return std::string(ISIM_LINT_FIXTURE_DIR) + "/" + name;
}

/** Load on-disk fixtures into a Linter and run every rule. */
std::vector<Finding>
lintFixtures(std::initializer_list<const char *> names)
{
    Linter linter;
    for (const char *name : names) {
        SourceFile file;
        std::string error;
        if (!SourceFile::load(fixturePath(name), file, error)) {
            ADD_FAILURE() << error;
            continue;
        }
        linter.addFile(std::move(file));
    }
    return linter.run();
}

/** Lint in-memory sources under synthetic repo-relative paths. */
std::vector<Finding>
lintText(
    std::initializer_list<std::pair<const char *, const char *>> files)
{
    Linter linter;
    for (const auto &[path, text] : files)
        linter.addFile(SourceFile::fromString(path, text));
    return linter.run();
}

std::size_t
countRule(const std::vector<Finding> &findings, const char *rule)
{
    return static_cast<std::size_t>(std::count_if(
        findings.begin(), findings.end(),
        [rule](const Finding &f) { return f.rule == rule; }));
}

bool
anyMessageContains(const std::vector<Finding> &findings,
                   const std::string &needle)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&needle](const Finding &f) {
                           return f.message.find(needle) !=
                                  std::string::npos;
                       });
}

// ---------------------------------------------------------------- //
// determinism

TEST(LintDeterminism, FlagsBannedEntropySources)
{
    const auto findings = lintFixtures({"src/determinism_bad.cc"});
    EXPECT_EQ(countRule(findings, "determinism"), 4u);
    EXPECT_EQ(findings.size(), 4u);
    EXPECT_TRUE(anyMessageContains(findings, "mt19937"));
    EXPECT_TRUE(anyMessageContains(findings, "rand()"));
    EXPECT_TRUE(anyMessageContains(findings, "time()"));
    EXPECT_TRUE(anyMessageContains(findings, "getenv"));
}

TEST(LintDeterminism, AcceptsSeededRngAndJustifiedSuppression)
{
    EXPECT_TRUE(lintFixtures({"src/determinism_good.cc"}).empty());
}

TEST(LintDeterminism, ExemptsTheSanctionedImplementations)
{
    // The one RNG implementation and the one getenv site are exempt.
    const auto findings = lintText({
        {"src/base/random.cc", "int x = std::mt19937{}();"},
        {"src/config/run_options.cc",
         "const char *v = getenv(\"ISIM_JOBS\");"},
    });
    EXPECT_EQ(countRule(findings, "determinism"), 0u);
}

// ---------------------------------------------------------------- //
// ordered-output

TEST(LintOrderedOutput, FlagsUnorderedIterationInSerializationPath)
{
    const auto findings = lintFixtures({"src/ckpt/ordered_bad.cc"});
    // Both the declaration and the direct range-for are findings.
    EXPECT_EQ(countRule(findings, "ordered-output"), 2u);
    EXPECT_EQ(findings.size(), 2u);
    EXPECT_TRUE(anyMessageContains(findings, "range-for"));
}

TEST(LintOrderedOutput, AcceptsTheSortedKeysIdiom)
{
    EXPECT_TRUE(lintFixtures({"src/ordered_good.cc"}).empty());
}

TEST(LintOrderedOutput, FlagsDirectIterationInSaveStateBody)
{
    const auto findings = lintText({{"src/table.hh",
        "class Table {\n"
        "  public:\n"
        "    void saveState(ckpt::Serializer &s) const {\n"
        "        for (const auto &kv : map_) s.u64(kv.second);\n"
        "    }\n"
        "  private:\n"
        "    std::unordered_map<int, int> map_;\n"
        "};\n"}});
    EXPECT_EQ(countRule(findings, "ordered-output"), 1u);
}

// ---------------------------------------------------------------- //
// ckpt-coverage

TEST(LintCkptCoverage, FlagsTheDeliberatelyUnserializedMember)
{
    const auto findings = lintFixtures({"src/ckpt_cover_bad.hh"});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "ckpt-coverage");
    EXPECT_NE(findings[0].message.find("lostCounter_"),
              std::string::npos);
    EXPECT_EQ(findings[0].message.find("ticks_"), std::string::npos);
}

TEST(LintCkptCoverage, AcceptsFullCoverageAndTransients)
{
    EXPECT_TRUE(lintFixtures({"src/ckpt_cover_good.hh"}).empty());
}

TEST(LintCkptCoverage, CrossReferencesOutOfLineDefinitions)
{
    // Declaration in the header, definitions in the .cc: coverage is
    // computed across the whole file set and attributed to the header.
    const auto findings = lintText({
        {"src/widget.hh",
         "class Widget {\n"
         "  public:\n"
         "    void saveState(ckpt::Serializer &s) const;\n"
         "    void restoreState(ckpt::Deserializer &d);\n"
         "  private:\n"
         "    unsigned long a_ = 0;\n"
         "    unsigned long b_ = 0;\n"
         "};\n"},
        {"src/widget.cc",
         "void Widget::saveState(ckpt::Serializer &s) const {\n"
         "    s.u64(a_);\n"
         "}\n"
         "void Widget::restoreState(ckpt::Deserializer &d) {\n"
         "    a_ = d.u64();\n"
         "}\n"},
    });
    ASSERT_EQ(countRule(findings, "ckpt-coverage"), 1u);
    EXPECT_EQ(findings[0].path, "src/widget.hh");
    EXPECT_NE(findings[0].message.find("b_"), std::string::npos);
}

TEST(LintCkptCoverage, IgnoresInterfaceOnlyDeclarations)
{
    // A pure declaration with no definition anywhere in the file set
    // (an abstract interface) has nothing to cross-reference.
    const auto findings = lintText({{"src/iface.hh",
        "class Saveable {\n"
        "  public:\n"
        "    virtual void saveState(ckpt::Serializer &s) const = 0;\n"
        "  private:\n"
        "    int tag_ = 0;\n"
        "};\n"}});
    EXPECT_EQ(countRule(findings, "ckpt-coverage"), 0u);
}

// ---------------------------------------------------------------- //
// stats-coverage

TEST(LintStatsCoverage, FlagsTheUnregisteredCounter)
{
    const auto findings = lintFixtures({"src/stats_bad.hh"});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "stats-coverage");
    EXPECT_NE(findings[0].message.find("misses"), std::string::npos);
}

TEST(LintStatsCoverage, AcceptsFullyRegisteredCounters)
{
    EXPECT_TRUE(lintFixtures({"src/stats_good.hh"}).empty());
}

TEST(LintStatsCoverage, AcceptsRegistrationViaMachineBuildRegistry)
{
    const auto findings = lintText({
        {"src/foo.hh",
         "struct LooseCounters { unsigned long evictions = 0; };\n"},
        {"src/machine.cc",
         "void Machine::buildRegistry(stats::Registry &r) {\n"
         "    r.add(\"evictions\", &loose_.evictions);\n"
         "}\n"},
    });
    EXPECT_EQ(countRule(findings, "stats-coverage"), 0u);
}

// ---------------------------------------------------------------- //
// logging

TEST(LintLogging, FlagsBareStdioInLibraryCode)
{
    const auto findings = lintFixtures({"src/logging_bad.cc"});
    EXPECT_EQ(countRule(findings, "logging"), 2u);
    EXPECT_TRUE(anyMessageContains(findings, "printf()"));
    EXPECT_TRUE(anyMessageContains(findings, "std::cout"));
}

TEST(LintLogging, AcceptsMacrosAndJustifiedSuppression)
{
    EXPECT_TRUE(lintFixtures({"src/logging_good.cc"}).empty());
}

TEST(LintLogging, DoesNotConstrainCliMains)
{
    const auto findings = lintText({{"tools/isim-fig/main.cc",
        "int main() { std::printf(\"ok\\n\"); return 0; }\n"}});
    EXPECT_EQ(countRule(findings, "logging"), 0u);
}

// ---------------------------------------------------------------- //
// suppression (meta rule)

TEST(LintSuppression, PolicesBrokenAnnotations)
{
    const auto findings = lintFixtures({"src/suppress_bad.cc"});
    EXPECT_EQ(countRule(findings, "suppression"), 4u);
    EXPECT_EQ(findings.size(), 4u);
    EXPECT_TRUE(anyMessageContains(findings, "without a reason"));
    EXPECT_TRUE(anyMessageContains(findings, "unknown rule"));
    EXPECT_TRUE(anyMessageContains(findings, "malformed"));
}

TEST(LintSuppression, WellFormedAnnotationsAbsorbFindings)
{
    EXPECT_TRUE(lintFixtures({"src/suppress_good.cc"}).empty());
}

TEST(LintSuppression, DoesNotCrossRules)
{
    // An allow() for the wrong rule must not absorb the finding.
    const auto findings = lintText({{"src/x.cc",
        "// isim-lint: allow(logging): wrong rule on purpose\n"
        "int r = rand();\n"}});
    EXPECT_EQ(countRule(findings, "determinism"), 1u);
}

TEST(LintSuppression, CoversTheSameLine)
{
    const auto findings = lintText({{"src/x.cc",
        "int f() { std::cout << 1; return 0; } "
        "// isim-lint: allow(logging): trailing same-line form\n"}});
    EXPECT_EQ(countRule(findings, "logging"), 0u);
}

TEST(LintSuppression, ReasonlessAllowStillSuppressesNothing)
{
    // The reason-less annotation is itself a finding AND the
    // underlying finding survives: CI cannot be silenced silently.
    const auto findings = lintText({{"src/x.cc",
        "// isim-lint: allow(determinism)\n"
        "int r = rand();\n"}});
    EXPECT_EQ(countRule(findings, "suppression"), 1u);
    EXPECT_EQ(countRule(findings, "determinism"), 1u);
}

// ---------------------------------------------------------------- //
// driver behaviour

TEST(LintDriver, CatalogueListsEveryRule)
{
    const auto &rules = Linter::rules();
    ASSERT_EQ(rules.size(), 6u);
    std::vector<std::string> ids;
    for (const RuleInfo &rule : rules) {
        ids.emplace_back(rule.id);
        EXPECT_FALSE(std::string(rule.summary).empty());
        EXPECT_FALSE(std::string(rule.detail).empty());
    }
    const std::vector<std::string> expected = {
        "determinism",    "ordered-output", "ckpt-coverage",
        "stats-coverage", "logging",        "suppression",
    };
    for (const std::string &id : expected)
        EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end())
            << "missing rule " << id;
}

TEST(LintDriver, FormatsFindingsAsPathLineRule)
{
    const Finding f{"src/x.cc", 12, "determinism", "msg"};
    EXPECT_EQ(Linter::format(f), "src/x.cc:12: [determinism] msg");
}

TEST(LintDriver, FindingsAreSortedAndDeduplicated)
{
    const auto findings = lintFixtures({
        "src/determinism_bad.cc",
        "src/logging_bad.cc",
        "src/suppress_bad.cc",
    });
    ASSERT_FALSE(findings.empty());
    for (std::size_t i = 1; i < findings.size(); ++i) {
        const Finding &a = findings[i - 1];
        const Finding &b = findings[i];
        const auto ka =
            std::tie(a.path, a.line, a.rule, a.message);
        const auto kb =
            std::tie(b.path, b.line, b.rule, b.message);
        EXPECT_TRUE(ka < kb) << Linter::format(a) << " vs "
                             << Linter::format(b);
    }
}

} // namespace
} // namespace lint
} // namespace isim
