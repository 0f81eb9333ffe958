/**
 * @file
 * The machine-description table: one row per MachineConfig field, in
 * the checkpoint CONF order. The `.cfg` parser and emitter
 * (src/config/options.cc), the checkpoint CONF encoding
 * (src/ckpt/checkpoint.cc) and MachineConfig::validate() all iterate
 * machineFields(), so a field added here is parsed, written, encoded,
 * digested and range-checked everywhere at once.
 *
 * A row's kind is its member's type: unsigned (u32 in a checkpoint),
 * u64 / Tick / Cycles (u64), double (f64), bool, string, or one of the
 * enums below (a range-checked u8). Integer rows flagged `size` take
 * K/M/G suffixes in a `.cfg`.
 */

#ifndef ISIM_CONFIG_FIELDS_HH
#define ISIM_CONFIG_FIELDS_HH

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <variant>

#include "src/core/machine.hh"

namespace isim {

/** A row's member inside one MachineConfig. */
using FieldRef =
    std::variant<std::string *, unsigned *, std::uint64_t *, double *,
                 bool *, CpuModel *, IntegrationLevel *, L2Impl *,
                 WorkloadKind *>;

/** One machine-description field. */
struct MachineField
{
    /** `.cfg` key; nullptr marks a model constant (no key, no member). */
    const char *key = nullptr;
    FieldRef (*ref)(MachineConfig &) = nullptr;
    bool size = false; //!< integer written with a K/M/G suffix
    /**
     * Inclusive limits on an integer value (a double must also be
     * finite and within them); `max` is clipped to the member's type.
     * A model constant is the u32 `min` == `max`: images keep its
     * slot, and a restore requires that value.
     */
    std::uint64_t min = 0;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();

    /** The row's member in a config only read through it. */
    FieldRef in(const MachineConfig &c) const
    {
        return ref(const_cast<MachineConfig &>(c));
    }
};

/** Every field, in the checkpoint CONF order. */
std::span<const MachineField> machineFields();

/**
 * An enum's `.cfg` spellings, indexed by value: "canonical|alias|...".
 * `what` names the enum in messages.
 */
struct EnumNames
{
    const char *what;
    std::span<const char *const> names;
};

inline constexpr const char *cpuModelNames[] = {"inorder|in-order",
                                                "ooo|out-of-order"};
inline constexpr const char *levelNames[] = {
    "conservative|cons", "base", "l2", "l2mc|l2+mc", "full|all"};
inline constexpr const char *implNames[] = {
    "offchip-direct|offchip-dm", "offchip-assoc", "sram|onchip-sram",
    "dram|onchip-dram"};
inline constexpr const char *workloadKindNames[] = {"tpcb|oltp",
                                                    "dss|dss-scan"};

template <typename E>
inline constexpr EnumNames enumNames{};
template <>
inline constexpr EnumNames enumNames<CpuModel>{"cpu model", cpuModelNames};
template <>
inline constexpr EnumNames enumNames<IntegrationLevel>{"integration level",
                                                       levelNames};
template <>
inline constexpr EnumNames enumNames<L2Impl>{"L2 implementation",
                                             implNames};
template <>
inline constexpr EnumNames enumNames<WorkloadKind>{"workload kind",
                                                   workloadKindNames};

/**
 * fatal() naming the key unless integer `v` is within the row's
 * limits and `type_max`.
 */
void checkLimits(const MachineField &field, std::uint64_t v,
                 std::uint64_t type_max);
/** fatal() naming the key unless the row's member in `c` is in range. */
void checkFieldLimits(const MachineField &field, const MachineConfig &c);

} // namespace isim

#endif // ISIM_CONFIG_FIELDS_HH
