/**
 * @file
 * Machine-level checkpoint assembly: the section layout of a warm
 * checkpoint image and the MachineConfig echo it embeds. The Machine
 * checkpoint entry points (Machine::checkpointBytes / saveCheckpoint /
 * fromCheckpoint*) are declared on Machine itself and implemented in
 * checkpoint.cc; this header exposes the pieces tests and tools need
 * on their own.
 *
 * Image layout (after the serializer's magic + version preamble), as
 * CRC-framed sections in this fixed order:
 *
 *   CONF  full MachineConfig echo (geometry + workload knobs)
 *   META  warm-up boundary time
 *   SIMU  simulation-loop state (per-CPU clocks, injected kernel path)
 *   CPUS  per-core timing-model state
 *   MEMS  memory system (L1s/L2s/victims/RAC, directory, NoC counters)
 *   VMEM  virtual memory (page tables, frame allocators, RNG)
 *   KERN  kernel model (per-CPU RNGs, instruction counter)
 *   OLTP  engine state (tables, buffer cache, latches, redo, queues)
 *   SCHD  scheduler + every process's state
 *
 * See docs/CHECKPOINT.md for the contract.
 */

#ifndef ISIM_CKPT_CHECKPOINT_HH
#define ISIM_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <vector>

#include "src/ckpt/serializer.hh"

namespace isim {

struct MachineConfig;

namespace ckpt {

inline constexpr std::uint32_t tagConfig = sectionTag("CONF");
inline constexpr std::uint32_t tagMeta = sectionTag("META");
inline constexpr std::uint32_t tagSimLoop = sectionTag("SIMU");
inline constexpr std::uint32_t tagCpus = sectionTag("CPUS");
inline constexpr std::uint32_t tagMemSys = sectionTag("MEMS");
inline constexpr std::uint32_t tagVm = sectionTag("VMEM");
inline constexpr std::uint32_t tagKernel = sectionTag("KERN");
inline constexpr std::uint32_t tagOltp = sectionTag("OLTP");
inline constexpr std::uint32_t tagSched = sectionTag("SCHD");

/**
 * Canonical standalone encoding of a configuration: the image's CONF
 * section, every field of machineFields() (src/config/fields.hh) in
 * row order. Two configs are checkpoint-compatible exactly when their
 * encodings are equal (the runner refuses to measure a restored image
 * under a different configuration).
 */
std::vector<std::uint8_t> configBytes(const MachineConfig &config);

} // namespace ckpt
} // namespace isim

#endif // ISIM_CKPT_CHECKPOINT_HH
