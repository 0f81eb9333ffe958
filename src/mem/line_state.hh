/**
 * @file
 * Cache line permission states shared by the cache models and the
 * directory protocol.
 */

#ifndef ISIM_MEM_LINE_STATE_HH
#define ISIM_MEM_LINE_STATE_HH

#include <cstdint>

namespace isim {

/**
 * MESI permission of a cached line. Within a node the L2 (and RAC)
 * hold one of these; the directory tracks the node-level aggregate
 * (for the directory, Exclusive and Modified are one "owned" state —
 * a probe of the owner's caches distinguishes clean from dirty).
 */
enum class LineState : std::uint8_t {
    Invalid = 0,
    Shared = 1,    //!< read permission, memory copy at home is valid
    Exclusive = 2, //!< sole copy, clean; stores upgrade silently
    Modified = 3,  //!< sole copy, dirty
};

/** True for Exclusive or Modified (sole ownership). */
constexpr bool
lineOwned(LineState state)
{
    return state == LineState::Exclusive || state == LineState::Modified;
}

} // namespace isim

#endif // ISIM_MEM_LINE_STATE_HH
