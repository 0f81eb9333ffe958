/**
 * @file
 * Campaign cache layout and atomic file writes.
 */

#include "src/campaign/cache.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/base/json.hh"
#include "src/base/logging.hh"
#include "src/stats/manifest.hh"

namespace isim {
namespace campaign {

std::string
barStatsPath(const std::string &out_dir, const std::string &key)
{
    return out_dir + "/bars/" + key + ".stats.json";
}

std::string
imagePath(const std::string &out_dir, const std::string &group_key)
{
    return out_dir + "/ckpt/" + group_key + ".ckpt";
}

bool
barResultCached(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue doc;
    if (!jsonParse(buffer.str(), doc, nullptr))
        return false;
    const std::vector<stats::BarMetaView> meta = stats::manifestMeta(doc);
    return !meta.empty() && meta.front().meta.key == key;
}

void
writeFileAtomic(const std::string &path, const std::string &contents)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            isim_fatal("cannot write '%s'", tmp.c_str());
        out << contents;
        out.flush();
        if (!out)
            isim_fatal("write to '%s' failed", tmp.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        isim_fatal("rename '%s' -> '%s' failed: %s", tmp.c_str(),
                   path.c_str(), ec.message().c_str());
}

std::string
readFileOrDie(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        isim_fatal("cannot open '%s'", path.c_str());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace campaign
} // namespace isim
