/**
 * @file
 * The isim-lint rule implementations.
 *
 * Each check appends Findings; suppression filtering and sorting
 * happen centrally in Linter::run(). Rule ids (the names accepted by
 * `// isim-lint: allow(<rule>)`):
 *
 *   determinism     banned entropy/wall-clock/getenv sources
 *   ordered-output  unordered-container iteration in serialization
 *                   and reporting paths
 *   ckpt-coverage   saveState/restoreState must mention every
 *                   non-static, non-reference data member
 *   stats-coverage  *Stats / *Counters members must be registered
 *   logging         bare stdio outside src/base/logging and the CLIs
 *   suppression     malformed or reason-less annotations (meta rule;
 *                   not itself suppressible)
 */

#ifndef ISIM_LINT_CHECKS_HH
#define ISIM_LINT_CHECKS_HH

#include <string>
#include <vector>

#include "src/lint/source.hh"

namespace isim {
namespace lint {

struct Finding
{
    std::string path;
    int line = 0;
    std::string rule;
    std::string message;
};

namespace checks {

void determinism(const SourceFile &file, std::vector<Finding> &out);
void logging(const SourceFile &file, std::vector<Finding> &out);
void suppressions(const SourceFile &file, std::vector<Finding> &out);
void orderedOutput(const std::vector<SourceFile> &files,
                   std::vector<Finding> &out);
void ckptCoverage(const std::vector<SourceFile> &files,
                  std::vector<Finding> &out);
void statsCoverage(const std::vector<SourceFile> &files,
                   std::vector<Finding> &out);

} // namespace checks

} // namespace lint
} // namespace isim

#endif // ISIM_LINT_CHECKS_HH
