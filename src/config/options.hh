/**
 * @file
 * Plain-text configuration: a small `key = value` format (comments
 * with '#', dotted keys) and the mapping onto MachineConfig /
 * WorkloadParams, so experiments can be described in files instead of
 * C++ (see `isim-fig config` and examples/configs/).
 */

#ifndef ISIM_CONFIG_OPTIONS_HH
#define ISIM_CONFIG_OPTIONS_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "src/core/machine.hh"
#include "src/obs/observability.hh"

namespace isim {

/**
 * Parsed key/value configuration. Keys are dotted lowercase paths
 * ("machine.l2.size"); values are uninterpreted strings until read.
 */
class KvConfig
{
  public:
    KvConfig() = default;

    /** Parse from text; fatal() on malformed lines. */
    static KvConfig fromString(const std::string &text);
    /** Parse a file; fatal() if it cannot be read. */
    static KvConfig fromFile(const std::string &path);

    bool has(const std::string &key) const;
    /** Raw value; fatal() if missing. */
    const std::string &get(const std::string &key) const;

    /** Typed readers (fatal() on malformed values). */
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    /** Size with suffix: "64", "32K", "2M", "1G". */
    std::uint64_t getSize(const std::string &key,
                          std::uint64_t fallback) const;

    /** First entry never read by a getter; empty if none. */
    std::string firstUnread() const;

  private:
    /** The value of `key` (nullptr if absent), marked as read. */
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> map_;
    mutable std::set<std::string> read_; //!< for unknown-key detection
};

/**
 * Parse "64" / "32K" / "2M" / "1G" into bytes; fatal() on junk or on
 * a value past 2^64-1. A non-empty `key` is named in the message.
 */
std::uint64_t parseSize(const std::string &text,
                        const std::string &key = "");

/**
 * A flag's unsigned value; fatal() naming `flag` on anything but
 * digits that fit in 64 bits.
 */
std::uint64_t parseUintFlag(const char *flag, const std::string &text);

/**
 * Command-line flag matcher: true when argv[i] is `flag=VALUE` or
 * `flag` followed by VALUE, with the value in `value`; the second form
 * steps `i` onto the value. fatal() naming `flag` on an empty value or
 * a `flag` with nothing after it.
 */
bool flagValue(int &i, int argc, char **argv, const char *flag,
               std::string &value);

/**
 * Build a full machine configuration from a KvConfig: one key per
 * row of machineFields() (src/config/fields.hh), defaulting to
 * MachineConfig's values and the name "from-config". Unknown keys are
 * fatal (they are invariably typos), and so is a machine that fails
 * MachineConfig::validate(). `isim-fig dump-cfg` prints every key
 * with its default.
 */
MachineConfig machineFromConfig(const KvConfig &kv);

/**
 * Render every keyed field of a MachineConfig as config text that
 * machineFromConfig() parses back to the same machine: equal
 * ckpt::configBytes(). Sizes carry the largest exact K/M/G suffix,
 * doubles the shortest exact decimal. fatal() on a name no config
 * line can hold (empty, '#', a newline, edge whitespace).
 */
std::string machineToConfigText(const MachineConfig &config);

/**
 * Parse the observability flags every figure run accepts out of
 * argv, consuming the recognized ones (argc/argv are rewritten so
 * remaining arguments keep their order):
 *
 * Each also takes the `--flag VALUE` form (flagValue).
 *
 *   --trace-bin=FILE     write a binary capture for tools/itrace
 *   --trace-ring=N       event-ring capacity (events, power of two
 *                        not required)
 *   --trace-bar=N        which bar of the figure to observe
 *
 * The capture is a run's one event artifact (`itrace chrome` renders
 * it as Chrome JSON); epoch rows are the stats manifest's, on the
 * --stats-epoch grid (`isim-stat timeline` renders them as CSV). The
 * retired --trace-out, --timeline-out and --epoch are fatal, naming
 * that replacement. fatal() on a malformed value. `--help`/`-h`
 * prints usage (including obsOptionsHelp()) and exits.
 */
obs::ObsConfig obsFromCommandLine(int &argc, char **argv);

/** One-per-line description of the observability flags. */
const char *obsOptionsHelp();

} // namespace isim

#endif // ISIM_CONFIG_OPTIONS_HH
