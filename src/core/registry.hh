/**
 * @file
 * FigureRegistry: the central catalog of every runnable figure,
 * ablation, and extension experiment, keyed by a short kebab-case id
 * ("fig10-uni", "ablation-victim", "ext-cmp"). Adding an experiment
 * means registering one factory here — no new binary or CMake
 * target — and it becomes runnable via `isim-fig run <id>` and
 * enumerable via `isim-fig list`. Tables that simulate nothing
 * (Figures 2 and 3, ablation-noc) are not here: isim-fig keeps them
 * in its own table catalog.
 */

#ifndef ISIM_CORE_REGISTRY_HH
#define ISIM_CORE_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.hh"

namespace isim {

/** One catalog entry. */
struct FigureEntry
{
    std::string id;          //!< unique kebab-case key, e.g. "fig05"
    std::string description; //!< one line for `isim-fig list`
    /** Optional commentary printed after the figure's report. */
    std::string note;
    std::function<FigureSpec()> make;
};

/** Immutable catalog built once at first use. */
class FigureRegistry
{
  public:
    static const FigureRegistry &instance();

    const std::vector<FigureEntry> &entries() const { return entries_; }

    /** Exact-id lookup; nullptr when unknown. */
    const FigureEntry *find(const std::string &id) const;

    /**
     * Exact match if one exists, otherwise every entry whose id
     * starts with `id` (so "fig10" resolves to fig10-uni + fig10-mp).
     * Empty when nothing matches.
     */
    std::vector<const FigureEntry *>
    resolve(const std::string &id) const;

    FigureRegistry(const FigureRegistry &) = delete;
    FigureRegistry &operator=(const FigureRegistry &) = delete;

  private:
    FigureRegistry();
    std::vector<FigureEntry> entries_;
};

} // namespace isim

#endif // ISIM_CORE_REGISTRY_HH
