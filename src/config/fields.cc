/**
 * @file
 * The machine-description table and its limit checks.
 */

#include "src/config/fields.hh"

#include <algorithm>
#include <array>
#include <type_traits>

#include "src/base/logging.hh"
#include "src/coherence/directory.hh"

namespace isim {

namespace {

// One row: `.cfg` key, member path inside MachineConfig, then any of
// .size / .min / .max. ISIM_WORKLOAD prefixes "workload." to both.
#define ISIM_FIELD(cfg_key, member, ...)                                  \
    MachineField                                                          \
    {                                                                     \
        .key = cfg_key,                                                   \
        .ref = [](MachineConfig &c) -> FieldRef { return &c.member; },    \
        __VA_ARGS__                                                       \
    }
#define ISIM_WORKLOAD(cfg_key, member, ...)                               \
    ISIM_FIELD("workload." cfg_key, workload.member, __VA_ARGS__)

/** A model limit kept as a fixed u32 slot of the CONF encoding. */
constexpr MachineField
modelConstant(unsigned value)
{
    return {.min = value, .max = value};
}

constexpr std::array fields{
    ISIM_FIELD("machine.name", name),
    ISIM_FIELD("machine.cpus", numCpus, .min = 1),
    // A chip holds at most 16 cores (the modelled CMP range).
    ISIM_FIELD("machine.cores_per_node", coresPerNode, .min = 1, .max = 16),
    ISIM_FIELD("machine.cpu_model", cpuModel),
    ISIM_FIELD("ooo.width", oooParams.width, .min = 1),
    ISIM_FIELD("ooo.window", oooParams.window),
    ISIM_FIELD("ooo.ls_ports", oooParams.lsPorts, .min = 1),
    ISIM_FIELD("ooo.frontend_depth", oooParams.frontendDepth),
    ISIM_FIELD("ooo.l1_hit_latency", oooParams.l1HitLatency),
    ISIM_FIELD("ooo.mispredict_every", oooParams.mispredictEveryInstrs),
    ISIM_FIELD("machine.level", level),
    ISIM_FIELD("machine.l2.impl", l2Impl),
    ISIM_FIELD("machine.l2.size", l2.sizeBytes, .size = true),
    ISIM_FIELD("machine.l2.assoc", l2.assoc),
    modelConstant(MemSysConfig{}.lineBytes), // L2 line = the L1 line
    ISIM_FIELD("machine.rac.enabled", rac),
    ISIM_FIELD("machine.rac.size", racGeom.sizeBytes, .size = true),
    ISIM_FIELD("machine.rac.assoc", racGeom.assoc),
    modelConstant(MemSysConfig{}.lineBytes), // RAC line = the L1 line
    ISIM_FIELD("machine.victim_buffer", victimBufferEntries),
    ISIM_FIELD("machine.prefetch_degree", prefetchDegree),
    ISIM_FIELD("machine.mc_occupancy", mcOccupancy),
    ISIM_FIELD("machine.replicate_code", replicateCode),
    modelConstant(nodeWindowBits), // log2 of the node memory window
    ISIM_FIELD("machine.page_colors", pageColors),
    ISIM_WORKLOAD("kind", kind),
    ISIM_WORKLOAD("branches", branches, .min = 1),
    ISIM_WORKLOAD("tellers_per_branch", tellersPerBranch, .min = 1),
    ISIM_WORKLOAD("accounts_per_branch", accountsPerBranch, .min = 1),
    ISIM_WORKLOAD("servers_per_cpu", serversPerCpu, .min = 1),
    ISIM_WORKLOAD("transactions", transactions),
    ISIM_WORKLOAD("warmup", warmupTransactions),
    ISIM_WORKLOAD("block_size", blockBytes, .size = true, .min = 1),
    ISIM_WORKLOAD("row_size", rowBytes, .size = true, .min = 1),
    ISIM_WORKLOAD("block_buffer", blockBufferBytes, .size = true, .min = 1),
    ISIM_WORKLOAD("metadata_slack", metadataSlackBytes, .size = true),
    ISIM_WORKLOAD("hash_buckets", hashBuckets, .min = 1),
    ISIM_WORKLOAD("latches", numLatches, .min = 1),
    ISIM_WORKLOAD("latch_stride", latchStride, .min = 1),
    ISIM_WORKLOAD("hash_latches", numHashLatches, .min = 1),
    ISIM_WORKLOAD("redo_copy_latches", redoCopyLatches, .min = 1),
    // Footprint rows hold at least one 64-byte line (hot metadata one
    // per half: shared dictionary and per-node session state).
    ISIM_WORKLOAD("log_buffer", logBufferBytes, .size = true, .min = 64),
    ISIM_WORKLOAD("db_text", dbTextBytes, .size = true, .min = 1),
    ISIM_WORKLOAD("db_functions", dbFunctions, .min = 1),
    ISIM_WORKLOAD("parse_invocations", parseInvocations, .min = 1),
    ISIM_WORKLOAD("execute_invocations", executeInvocations),
    ISIM_WORKLOAD("commit_invocations", commitInvocations),
    ISIM_WORKLOAD("function_skew", functionSkew),
    ISIM_WORKLOAD("data_refs_per_line", dataRefsPerLine),
    ISIM_WORKLOAD("private_fraction", privateFraction, .max = 1),
    ISIM_WORKLOAD("metadata_fraction", metadataFraction, .max = 1),
    ISIM_WORKLOAD("warm_fraction", warmFraction, .max = 1),
    ISIM_WORKLOAD("mixer_store_fraction", mixerStoreFraction, .max = 1),
    ISIM_WORKLOAD("shared_metadata_store_fraction",
                  sharedMetadataStoreFraction, .max = 1),
    ISIM_WORKLOAD("dependent_fraction", dependentFraction, .max = 1),
    ISIM_WORKLOAD("private_size", privateBytes, .size = true, .min = 64),
    ISIM_WORKLOAD("private_skew", privateSkew),
    ISIM_WORKLOAD("metadata_skew", metadataSkew),
    ISIM_WORKLOAD("block_lines_per_row_read", blockLinesPerRowRead),
    ISIM_WORKLOAD("index_levels", indexLevels),
    ISIM_WORKLOAD("cold_header_scans", coldHeaderScans),
    ISIM_WORKLOAD("hot_metadata", hotMetadataBytes, .size = true, .min = 128),
    ISIM_WORKLOAD("warm_metadata", warmMetadataBytes, .size = true, .min = 64),
    ISIM_WORKLOAD("dss_streams_per_cpu", dssStreamsPerCpu, .min = 1),
    ISIM_WORKLOAD("dss_blocks_per_query", dssBlocksPerQuery),
    ISIM_WORKLOAD("log_write_latency", logWriteLatency),
    ISIM_WORKLOAD("think_time", clientThinkTime),
    ISIM_WORKLOAD("db_writer_period", dbWriterPeriod),
    ISIM_WORKLOAD("db_writer_batch", dbWriterBatch),
    ISIM_WORKLOAD("seed", seed),
    ISIM_WORKLOAD("quantum", quantum),
};

#undef ISIM_WORKLOAD
#undef ISIM_FIELD

} // namespace

std::span<const MachineField>
machineFields()
{
    return fields;
}

void
checkLimits(const MachineField &field, std::uint64_t v,
            std::uint64_t type_max)
{
    const auto n = static_cast<unsigned long long>(v);
    if (v < field.min) {
        isim_fatal("config key '%s': must be >= %llu, got %llu", field.key,
                   static_cast<unsigned long long>(field.min), n);
    }
    const auto max = static_cast<unsigned long long>(
        std::min(field.max, type_max));
    if (v > max) {
        isim_fatal("config key '%s': %llu exceeds the limit %llu",
                   field.key, n, max);
    }
}

void
checkFieldLimits(const MachineField &field, const MachineConfig &c)
{
    std::visit(
        [&](const auto *p) {
            using T = std::remove_cvref_t<decltype(*p)>;
            if constexpr (std::is_same_v<T, double>) {
                const auto lo = static_cast<double>(field.min);
                const auto hi = static_cast<double>(field.max);
                if (!(*p >= lo && *p <= hi)) { // NaN fails too
                    isim_fatal("config key '%s': %g is not a finite "
                               "value in [%g, %g]",
                               field.key, *p, lo, hi);
                }
            } else if constexpr (std::is_same_v<T, unsigned> ||
                                 std::is_same_v<T, std::uint64_t>) {
                checkLimits(field, *p, std::numeric_limits<T>::max());
            }
        },
        field.in(c));
}

} // namespace isim
