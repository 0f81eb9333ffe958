/**
 * @file
 * Campaign result cache: where bar results and warm images live
 * inside a campaign output directory, and how a completed cell is
 * recognized on resume.
 *
 *   <out>/campaign.spec.json   byte copy of the spec (resume guard)
 *   <out>/bars/<key>.stats.json   one single-bar stats manifest per
 *                              completed cell, named by its
 *                              content-address key (stats::resultKey)
 *   <out>/ckpt/<group>.ckpt    one warm image per checkpoint group
 *   <out>/campaign.json        the merged campaign manifest
 *
 * A cell is cached exactly when its bar file parses as an isim-stats
 * manifest whose first bar echoes the expected key in META — a
 * half-written or stale file is simply not a hit. All writes go
 * through a temp-file + rename so a kill mid-write never leaves a
 * file that passes that test.
 */

#ifndef ISIM_CAMPAIGN_CACHE_HH
#define ISIM_CAMPAIGN_CACHE_HH

#include <string>

namespace isim {
namespace campaign {

/** `<out>/bars/<key>.stats.json` */
std::string barStatsPath(const std::string &out_dir,
                         const std::string &key);

/** `<out>/ckpt/<group_key>.ckpt` */
std::string imagePath(const std::string &out_dir,
                      const std::string &group_key);

/**
 * Whether `path` holds a valid cached result for `key`: it exists,
 * parses as JSON, and its first bar's META key equals `key`.
 */
bool barResultCached(const std::string &path, const std::string &key);

/**
 * Write `contents` to `path` atomically (write `<path>.tmp`, then
 * rename over). Fatal on I/O error.
 */
void writeFileAtomic(const std::string &path,
                     const std::string &contents);

/** Slurp a file; fatal when it cannot be opened. */
std::string readFileOrDie(const std::string &path);

} // namespace campaign
} // namespace isim

#endif // ISIM_CAMPAIGN_CACHE_HH
