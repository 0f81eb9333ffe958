/**
 * @file
 * Configuration parsing and the MachineConfig mapping.
 */

#include "src/config/options.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/base/logging.hh"
#include "src/config/fields.hh"

namespace isim {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t b = 0, e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b &&
           std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

std::string
lower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return text;
}

/** Parse a non-empty all-digit string; false on junk or past 64 bits. */
bool
parseDigits(const std::string &digits, std::uint64_t &out)
{
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(digits.c_str(), nullptr, 10);
    return errno != ERANGE;
}

} // namespace

std::uint64_t
parseSize(const std::string &text, const std::string &key)
{
    const std::string where =
        key.empty() ? "" : "config key '" + key + "': ";
    const std::string t = trim(text);
    if (t.empty())
        isim_fatal("%sempty size value", where.c_str());
    std::uint64_t scale = 1;
    std::string digits = t;
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(
            t.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        scale = suffix == 'K' ? kib : suffix == 'M' ? mib : gib;
        digits = t.substr(0, t.size() - 1);
    }
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
        isim_fatal("%smalformed size value '%s'", where.c_str(),
                   text.c_str());
    }
    std::uint64_t n = 0;
    if (!parseDigits(digits, n) || n > UINT64_MAX / scale) {
        isim_fatal("%ssize value '%s' does not fit in 64 bits",
                   where.c_str(), text.c_str());
    }
    return n * scale;
}

KvConfig
KvConfig::fromString(const std::string &text)
{
    KvConfig kv;
    std::istringstream is(text);
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::string stripped = trim(line);
        if (stripped.empty())
            continue;
        const std::size_t eq = stripped.find('=');
        if (eq == std::string::npos) {
            isim_fatal("config line %d: expected 'key = value', got "
                       "'%s'",
                       line_no, stripped.c_str());
        }
        const std::string key = lower(trim(stripped.substr(0, eq)));
        const std::string value = trim(stripped.substr(eq + 1));
        if (key.empty() || value.empty()) {
            isim_fatal("config line %d: empty key or value", line_no);
        }
        if (!kv.map_.emplace(key, value).second)
            isim_fatal("config line %d: duplicate key '%s'", line_no,
                       key.c_str());
    }
    return kv;
}

KvConfig
KvConfig::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        isim_fatal("cannot read config file: %s", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromString(buffer.str());
}

bool
KvConfig::has(const std::string &key) const
{
    return map_.count(key) != 0;
}

const std::string &
KvConfig::get(const std::string &key) const
{
    const std::string *found = find(key);
    if (found == nullptr)
        isim_fatal("missing config key '%s'", key.c_str());
    return *found;
}

const std::string *
KvConfig::find(const std::string &key) const
{
    read_.insert(key);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
}

std::uint64_t
KvConfig::getUint(const std::string &key, std::uint64_t fallback) const
{
    const std::string *found = find(key);
    if (found == nullptr)
        return fallback;
    const std::string &v = *found;
    if (v.find_first_not_of("0123456789") != std::string::npos)
        isim_fatal("config key '%s': expected integer, got '%s'",
                   key.c_str(), v.c_str());
    std::uint64_t n = 0;
    if (!parseDigits(v, n)) {
        isim_fatal("config key '%s': value '%s' does not fit in 64 bits",
                   key.c_str(), v.c_str());
    }
    return n;
}

double
KvConfig::getDouble(const std::string &key, double fallback) const
{
    const std::string *found = find(key);
    if (found == nullptr)
        return fallback;
    try {
        std::size_t pos = 0;
        const double v = std::stod(*found, &pos);
        if (pos != found->size())
            throw std::invalid_argument("trailing junk");
        return v;
    } catch (const std::exception &) {
        isim_fatal("config key '%s': expected number, got '%s'",
                   key.c_str(), found->c_str());
    }
}

bool
KvConfig::getBool(const std::string &key, bool fallback) const
{
    const std::string *found = find(key);
    if (found == nullptr)
        return fallback;
    const std::string v = lower(*found);
    if (v == "true" || v == "yes" || v == "on" || v == "1")
        return true;
    if (v == "false" || v == "no" || v == "off" || v == "0")
        return false;
    isim_fatal("config key '%s': expected boolean, got '%s'",
               key.c_str(), found->c_str());
}

std::uint64_t
KvConfig::getSize(const std::string &key, std::uint64_t fallback) const
{
    const std::string *found = find(key);
    return found == nullptr ? fallback : parseSize(*found, key);
}

std::string
KvConfig::firstUnread() const
{
    for (const auto &[key, value] : map_) {
        if (!read_.count(key))
            return key;
    }
    return "";
}

namespace {

/**
 * True when `name` is a whole `|`-separated run of `aliases`: the
 * match `"|" + name + "|"` would find in `"|" + aliases + "|"`,
 * without building either string.
 */
bool
namesAlias(std::string_view aliases, std::string_view name)
{
    for (std::size_t pos = aliases.find(name); pos != std::string_view::npos;
         pos = aliases.find(name, pos + 1)) {
        const std::size_t end = pos + name.size();
        if ((pos == 0 || aliases[pos - 1] == '|') &&
            (end == aliases.size() || aliases[end] == '|'))
            return true;
    }
    return false;
}

/** Set one field's member from its key, when the config has it. */
template <typename T>
void
parseField(const KvConfig &kv, const MachineField &f, T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        // The only string is the machine name.
        v = kv.has(f.key) ? kv.get(f.key) : "from-config";
    } else if constexpr (std::is_same_v<T, bool>) {
        v = kv.getBool(f.key, v);
    } else if constexpr (std::is_same_v<T, double>) {
        v = kv.getDouble(f.key, v);
    } else if constexpr (std::is_enum_v<T>) {
        if (!kv.has(f.key))
            return;
        const std::string &text = kv.get(f.key);
        const std::string name = lower(text);
        const EnumNames e = enumNames<T>;
        std::string want;
        for (std::size_t i = 0; i < e.names.size(); ++i) {
            if (namesAlias(e.names[i], name)) {
                v = static_cast<T>(i);
                return;
            }
            if (i > 0)
                want += ", ";
            want += e.names[i];
        }
        isim_fatal("config key '%s': unknown %s '%s' (want one of %s)",
                   f.key, e.what, text.c_str(), want.c_str());
    } else {
        const std::uint64_t n =
            f.size ? kv.getSize(f.key, v) : kv.getUint(f.key, v);
        checkLimits(f, n, std::numeric_limits<T>::max());
        v = static_cast<T>(n);
    }
}

/** One field's value as `.cfg` text that parses back to it exactly. */
template <typename T>
std::string
formatField(const MachineField &f, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>) {
        if (v.empty() || v != trim(v) ||
            v.find_first_of("#\n") != std::string::npos) {
            isim_fatal("config key '%s': '%s' cannot be written as a "
                       "config value",
                       f.key, v.c_str());
        }
        return v;
    } else if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_same_v<T, double>) {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof buf, v);
        return std::string(buf, res.ptr);
    } else if constexpr (std::is_enum_v<T>) {
        const std::string names =
            enumNames<T>.names[static_cast<std::size_t>(v)];
        return names.substr(0, names.find('|')); // the canonical one
    } else {
        static constexpr std::pair<std::uint64_t, char> units[] = {
            {gib, 'G'}, {mib, 'M'}, {kib, 'K'}};
        for (const auto &[scale, suffix] : units) {
            if (f.size && v != 0 && v % scale == 0)
                return std::to_string(v / scale) + suffix;
        }
        return std::to_string(v);
    }
}

} // namespace

MachineConfig
machineFromConfig(const KvConfig &kv)
{
    MachineConfig cfg;
    for (const MachineField &f : machineFields()) {
        if (f.key != nullptr)
            std::visit([&](auto *p) { parseField(kv, f, *p); }, f.ref(cfg));
    }
    const std::string unread = kv.firstUnread();
    if (!unread.empty())
        isim_fatal("unknown config key '%s'", unread.c_str());
    cfg.validate();
    return cfg;
}

std::string
machineToConfigText(const MachineConfig &cfg)
{
    std::string text = "# IntegraSim machine configuration\n";
    const auto format = [&](const MachineField &f) {
        return std::visit([&](const auto *p) { return formatField(f, *p); },
                          f.in(cfg));
    };
    for (const MachineField &f : machineFields()) {
        if (f.key != nullptr)
            text += std::string(f.key) + " = " + format(f) + "\n";
    }
    return text;
}

bool
flagValue(int &i, int argc, char **argv, const char *flag,
          std::string &value)
{
    const char *arg = argv[i];
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return false;
    if (arg[n] == '=') {
        value = arg + n + 1;
        if (value.empty())
            isim_fatal("%s needs a value", flag);
        return true;
    }
    if (arg[n] != '\0')
        return false;
    if (i + 1 >= argc)
        isim_fatal("%s needs a value", flag);
    value = argv[++i];
    return true;
}

std::uint64_t
parseUintFlag(const char *flag, const std::string &text)
{
    std::uint64_t v = 0;
    if (!parseDigits(text, v))
        isim_fatal("%s: expected an unsigned integer, got '%s'", flag,
                   text.c_str());
    return v;
}

const char *
obsOptionsHelp()
{
    return "  --trace-out=FILE     write a Chrome trace_event JSON "
           "trace (Perfetto)\n"
           "  --trace-bin=FILE     write a binary capture for "
           "tools/itrace\n"
           "  --timeline-out=FILE  write the epoch timeline CSV\n"
           "  --epoch=TICKS        timeline epoch in simulated ns "
           "(default 1000000, or the --stats-epoch grid)\n"
           "  --trace-ring=N       event-ring capacity in events "
           "(default 262144)\n"
           "  --trace-bar=N        figure bar to observe (default 0)\n";
}

obs::ObsConfig
obsFromCommandLine(int &argc, char **argv, Tick stats_epoch)
{
    obs::ObsConfig cfg;
    int out = 1;
    std::string v;
    const auto matches = [&](int &i, const char *flag) {
        return flagValue(i, argc, argv, flag, v);
    };
    for (int i = 1; i < argc; ++i) {
        if (matches(i, "--trace-out")) {
            cfg.traceOutPath = v;
        } else if (matches(i, "--trace-bin")) {
            cfg.traceBinPath = v;
        } else if (matches(i, "--timeline-out")) {
            cfg.timelineOutPath = v;
        } else if (matches(i, "--epoch")) {
            cfg.epochTicks = parseUintFlag("--epoch", v);
            if (cfg.epochTicks == 0)
                isim_fatal("--epoch must be positive");
            if (stats_epoch > 0 && cfg.epochTicks != stats_epoch) {
                isim_fatal("--epoch=%llu disagrees with --stats-epoch=%llu:"
                           " a run has one epoch grid (drop --epoch)",
                           static_cast<unsigned long long>(cfg.epochTicks),
                           static_cast<unsigned long long>(stats_epoch));
            }
        } else if (matches(i, "--trace-ring")) {
            cfg.ringCapacity = parseUintFlag("--trace-ring", v);
            if (cfg.ringCapacity == 0)
                isim_fatal("--trace-ring must be positive");
        } else if (matches(i, "--trace-bar")) {
            cfg.traceBar = parseUintFlag("--trace-bar", v);
        } else {
            argv[out++] = argv[i]; // not ours: keep it
        }
    }
    argc = out;
    if (stats_epoch > 0)
        cfg.epochTicks = stats_epoch;
    return cfg;
}

} // namespace isim
