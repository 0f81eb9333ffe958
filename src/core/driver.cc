/**
 * @file
 * Figure-running driver implementation.
 */

#include "src/core/driver.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <system_error>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/core/report.hh"

namespace isim {

namespace {

void
writeTextFile(const std::string &path, const std::string &content,
              const char *what)
{
    std::ofstream out(path);
    if (!out)
        isim_fatal("cannot write %s: %s", what, path.c_str());
    out << content;
    if (!out)
        isim_fatal("write of %s failed: %s", what, path.c_str());
}

/** Create the --json-dir and its parents; fatal, naming it, on failure. */
void
makeJsonDir(const std::string &path)
{
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec)
        isim_fatal("cannot create --json-dir directory %s: %s", path.c_str(),
                   ec.message().c_str());
}

} // namespace

std::string
figureJsonStem(const FigureSpec &spec)
{
    std::string name;
    for (const char c : spec.id + "_" + spec.title) {
        name += std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)))
                    : '_';
    }
    return name.substr(0, 64);
}

int
runFigureAndPrint(const FigureSpec &spec, const RunOptions &options)
{
    options.applyGlobal();
    // Fail on an unusable --json-dir before any bar is simulated.
    if (!options.jsonDir.empty())
        makeJsonDir(options.jsonDir);
    const ExperimentRunner runner(options);
    const FigureResult result = runner.run(spec);
    // The report is the CLI's product output, not a diagnostic.
    // isim-lint: allow(logging): figure reports are the CLI's stdout contract
    printFigureReport(std::cout, result);
    if (!options.jsonDir.empty()) {
        const std::string path =
            options.jsonDir + "/" + figureJsonStem(spec) + ".json";
        writeTextFile(path, figureToJson(result), "figure JSON");
        isim_inform("json written to %s", path.c_str());
    }
    if (!options.statsOut.empty() || !options.jsonDir.empty()) {
        const std::string path =
            !options.statsOut.empty()
                ? options.statsOut
                : options.jsonDir + "/" + figureJsonStem(spec) +
                      ".stats.json";
        const std::string manifest = figureStatsJson(result);
        // The manifest is a machine-interface contract (isim-stat,
        // CI regression diffs); prove it parses before shipping it.
        std::string err;
        if (!jsonValidate(manifest, &err))
            isim_panic("stats manifest does not validate: %s",
                       err.c_str());
        writeTextFile(path, manifest, "stats manifest");
        isim_inform("stats written to %s", path.c_str());
    }
    return 0;
}

} // namespace isim
