/**
 * @file
 * The table catalog of isim-fig: paper tables and ablations computed
 * from the base configuration and the component latency model alone
 * (Figure 2, Figure 3, the interconnect ablation). They simulate
 * nothing and have no bars, so they live here, beside the
 * FigureRegistry rather than in it.
 */

#ifndef ISIM_TOOLS_ISIM_FIG_TABLES_HH
#define ISIM_TOOLS_ISIM_FIG_TABLES_HH

#include <ostream>
#include <span>

namespace isim::fig {

/** One printed table: listed by `isim-fig list`, printed by `run`. */
struct TableEntry
{
    const char *id;          //!< kebab-case key, e.g. "fig02"
    const char *description; //!< one line for `isim-fig list`
    void (*print)(std::ostream &out);
};

/** Every table, in catalog order. */
std::span<const TableEntry> tableEntries();

} // namespace isim::fig

#endif // ISIM_TOOLS_ISIM_FIG_TABLES_HH
