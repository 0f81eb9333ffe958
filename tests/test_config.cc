/**
 * @file
 * Tests for the key=value configuration front end.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/base/logging.hh"
#include "src/ckpt/checkpoint.hh"
#include "src/config/fields.hh"
#include "src/config/options.hh"
#include "src/core/registry.hh"

namespace isim {
namespace {

TEST(ParseSize, SuffixesAndPlainBytes)
{
    EXPECT_EQ(parseSize("64"), 64u);
    EXPECT_EQ(parseSize("32K"), 32 * kib);
    EXPECT_EQ(parseSize("32k"), 32 * kib);
    EXPECT_EQ(parseSize("2M"), 2 * mib);
    EXPECT_EQ(parseSize("1G"), 1 * gib);
    EXPECT_EQ(parseSize(" 8M "), 8 * mib);
}

TEST(ParseSizeDeathTest, Junk)
{
    EXPECT_EXIT(parseSize("2MB"), ::testing::ExitedWithCode(1),
                "malformed size");
    EXPECT_EXIT(parseSize("fast"), ::testing::ExitedWithCode(1),
                "malformed size");
    EXPECT_EXIT(parseSize(""), ::testing::ExitedWithCode(1),
                "empty size");
    // Past 2^64-1, in the digits or through the suffix multiplication.
    EXPECT_EXIT(parseSize("99999999999999999999"),
                ::testing::ExitedWithCode(1), "does not fit in 64 bits");
    EXPECT_EXIT(parseSize("17179869184G"), ::testing::ExitedWithCode(1),
                "does not fit in 64 bits");
}

TEST(KvConfig, ParsesCommentsAndWhitespace)
{
    const KvConfig kv = KvConfig::fromString(
        "# header comment\n"
        "\n"
        "  machine.cpus = 8   # trailing comment\n"
        "MACHINE.Level = full\n");
    EXPECT_TRUE(kv.has("machine.cpus"));
    EXPECT_EQ(kv.get("machine.cpus"), "8");
    // Keys are case-folded; values are not.
    EXPECT_EQ(kv.get("machine.level"), "full");
    EXPECT_FALSE(kv.has("missing"));
}

TEST(KvConfig, TypedReaders)
{
    const KvConfig kv = KvConfig::fromString("a = 42\n"
                                             "b = true\n"
                                             "c = 2M\n"
                                             "d = 0.25\n");
    EXPECT_EQ(kv.getUint("a", 0), 42u);
    EXPECT_EQ(kv.getUint("zz", 7), 7u);
    EXPECT_TRUE(kv.getBool("b", false));
    EXPECT_FALSE(kv.getBool("zz", false));
    EXPECT_EQ(kv.getSize("c", 0), 2 * mib);
    EXPECT_DOUBLE_EQ(kv.getDouble("d", 0.0), 0.25);
}

TEST(KvConfigDeathTest, MalformedInput)
{
    EXPECT_EXIT(KvConfig::fromString("just words\n"),
                ::testing::ExitedWithCode(1), "expected 'key = value'");
    EXPECT_EXIT(KvConfig::fromString("a = 1\na = 2\n"),
                ::testing::ExitedWithCode(1), "duplicate key");
    const KvConfig kv = KvConfig::fromString("a = x\n");
    EXPECT_EXIT(kv.getUint("a", 0), ::testing::ExitedWithCode(1),
                "expected integer");
    const KvConfig huge =
        KvConfig::fromString("machine.cpus = 99999999999999999999999\n"
                             "machine.l2.size = 17179869184G\n");
    EXPECT_EXIT(huge.getUint("machine.cpus", 0),
                ::testing::ExitedWithCode(1),
                "config key 'machine.cpus': value "
                "'99999999999999999999999' does not fit in 64 bits");
    EXPECT_EXIT(huge.getSize("machine.l2.size", 0),
                ::testing::ExitedWithCode(1),
                "config key 'machine.l2.size': size value "
                "'17179869184G' does not fit in 64 bits");
    // Fits in 64 bits but not in the unsigned field: 2^32 + 2 used to
    // wrap silently to a 2-CPU machine.
    EXPECT_EXIT(machineFromConfig(
                    KvConfig::fromString("machine.cpus = 4294967298\n")),
                ::testing::ExitedWithCode(1),
                "config key 'machine.cpus': 4294967298 exceeds the "
                "limit 4294967295");
    EXPECT_EXIT(kv.getBool("a", false), ::testing::ExitedWithCode(1),
                "expected boolean");
    EXPECT_EXIT((void)kv.get("nope"), ::testing::ExitedWithCode(1),
                "missing config key");
}

TEST(MachineFromConfig, DefaultsWhenEmpty)
{
    const MachineConfig cfg =
        machineFromConfig(KvConfig::fromString(""));
    const MachineConfig def;
    EXPECT_EQ(cfg.numCpus, def.numCpus);
    EXPECT_EQ(cfg.l2.sizeBytes, def.l2.sizeBytes);
    EXPECT_EQ(cfg.level, def.level);
    EXPECT_EQ(cfg.workload.transactions, def.workload.transactions);
}

TEST(MachineFromConfig, FullSpecification)
{
    const MachineConfig cfg = machineFromConfig(KvConfig::fromString(
        "machine.name = test\n"
        "machine.cpus = 8\n"
        "machine.cores_per_node = 4\n"
        "machine.cpu_model = ooo\n"
        "machine.level = full\n"
        "machine.l2.impl = sram\n"
        "machine.l2.size = 2M\n"
        "machine.l2.assoc = 8\n"
        "machine.rac.enabled = true\n"
        "machine.rac.size = 4M\n"
        "machine.rac.assoc = 8\n"
        "machine.replicate_code = yes\n"
        "ooo.window = 128\n"
        "workload.transactions = 123\n"
        "workload.branches = 10\n"
        "workload.seed = 99\n"));
    EXPECT_EQ(cfg.name, "test");
    EXPECT_EQ(cfg.numCpus, 8u);
    EXPECT_EQ(cfg.coresPerNode, 4u);
    EXPECT_EQ(cfg.numNodes(), 2u);
    EXPECT_EQ(cfg.cpuModel, CpuModel::OutOfOrder);
    EXPECT_EQ(cfg.level, IntegrationLevel::FullInt);
    EXPECT_EQ(cfg.l2Impl, L2Impl::OnchipSram);
    EXPECT_EQ(cfg.l2.sizeBytes, 2 * mib);
    EXPECT_EQ(cfg.l2.assoc, 8u);
    EXPECT_TRUE(cfg.rac);
    EXPECT_EQ(cfg.racGeom.sizeBytes, 4 * mib);
    EXPECT_TRUE(cfg.replicateCode);
    EXPECT_EQ(cfg.oooParams.window, 128u);
    EXPECT_EQ(cfg.workload.transactions, 123u);
    EXPECT_EQ(cfg.workload.branches, 10u);
    EXPECT_EQ(cfg.workload.seed, 99u);
}

TEST(MachineFromConfig, ExtensionKnobs)
{
    const MachineConfig cfg = machineFromConfig(KvConfig::fromString(
        "machine.victim_buffer = 16\n"
        "machine.prefetch_degree = 2\n"
        "machine.mc_occupancy = 40\n"
        "machine.page_colors = 1024\n"));
    EXPECT_EQ(cfg.victimBufferEntries, 16u);
    EXPECT_EQ(cfg.prefetchDegree, 2u);
    EXPECT_EQ(cfg.mcOccupancy, 40u);
    EXPECT_EQ(cfg.pageColors, 1024u);
    // And they round-trip through the text form.
    const MachineConfig back = machineFromConfig(
        KvConfig::fromString(machineToConfigText(cfg)));
    EXPECT_EQ(back.victimBufferEntries, 16u);
    EXPECT_EQ(back.prefetchDegree, 2u);
    EXPECT_EQ(back.mcOccupancy, 40u);
    EXPECT_EQ(back.pageColors, 1024u);
}

TEST(MachineFromConfig, WorkloadKind)
{
    const MachineConfig dss = machineFromConfig(
        KvConfig::fromString("workload.kind = dss\n"
                             "workload.dss_blocks_per_query = 99\n"));
    EXPECT_EQ(dss.workload.kind, WorkloadKind::DssScan);
    EXPECT_EQ(dss.workload.dssBlocksPerQuery, 99u);
    const MachineConfig oltp = machineFromConfig(
        KvConfig::fromString("workload.kind = oltp\n"));
    EXPECT_EQ(oltp.workload.kind, WorkloadKind::TpcB);
}

TEST(MachineFromConfigDeathTest, BadWorkloadKind)
{
    EXPECT_EXIT(machineFromConfig(
                    KvConfig::fromString("workload.kind = webserver\n")),
                ::testing::ExitedWithCode(1), "unknown workload kind");
}

TEST(MachineFromConfigDeathTest, UnknownKeyIsFatal)
{
    EXPECT_EXIT(machineFromConfig(
                    KvConfig::fromString("machine.cpuz = 8\n")),
                ::testing::ExitedWithCode(1), "unknown config key");
}

TEST(MachineFromConfigDeathTest, BadEnumValues)
{
    EXPECT_EXIT(machineFromConfig(
                    KvConfig::fromString("machine.level = turbo\n")),
                ::testing::ExitedWithCode(1),
                "unknown integration level");
    EXPECT_EXIT(machineFromConfig(
                    KvConfig::fromString("machine.l2.impl = edram\n")),
                ::testing::ExitedWithCode(1),
                "unknown L2 implementation");
    EXPECT_EXIT(machineFromConfig(KvConfig::fromString(
                    "machine.cpu_model = vliw\n")),
                ::testing::ExitedWithCode(1), "unknown cpu model");
}

TEST(MachineFromConfigDeathTest, InvalidCombinationIsFatal)
{
    EXPECT_EXIT(machineFromConfig(KvConfig::fromString(
                    "machine.level = base\n"
                    "machine.l2.impl = sram\n")),
                ::testing::ExitedWithCode(1), "cannot use");
}

TEST(MachineFromConfigDeathTest, MoreThan32NodesIsFatal)
{
    // The directory's sharer set is a 32-bit mask.
    EXPECT_EXIT(Machine(machineFromConfig(
                    KvConfig::fromString("machine.cpus = 64\n"))),
                ::testing::ExitedWithCode(1),
                "64 nodes: the model supports 1..32 nodes");
}

TEST(MachineFromConfigDeathTest, MoreThan16CoresPerChipIsFatal)
{
    const KvConfig kv = KvConfig::fromString(
        "machine.cpus = 32\n"
        "machine.cores_per_node = 32\n");
    EXPECT_EXIT(Machine(machineFromConfig(kv)),
                ::testing::ExitedWithCode(1),
                "config key 'machine.cores_per_node': 32 exceeds the "
                "limit 16");
}

// The model limits are rejected by the parse itself, before any
// machine is built, in messages that name the .cfg keys.
TEST(MachineFromConfigDeathTest, SeventeenCoresPerNodeFailAtParse)
{
    EXPECT_EXIT(machineFromConfig(KvConfig::fromString(
                    "machine.cpus = 17\n"
                    "machine.cores_per_node = 17\n")),
                ::testing::ExitedWithCode(1),
                "config key 'machine.cores_per_node': 17 exceeds the "
                "limit 16");
}

TEST(MachineFromConfigDeathTest, ThirtyThreeNodesFailAtParse)
{
    EXPECT_EXIT(machineFromConfig(KvConfig::fromString(
                    "machine.cpus = 66\n"
                    "machine.cores_per_node = 2\n")),
                ::testing::ExitedWithCode(1),
                "config keys 'machine.cpus' = 66, "
                "'machine.cores_per_node' = 2: 33 nodes: the model "
                "supports 1..32 nodes");
}

TEST(MachineFromConfigDeathTest, BadGeometryIsFatal)
{
    const auto parse = [](const char *text) {
        return machineFromConfig(KvConfig::fromString(text));
    };
    // Would otherwise divide by zero when the machine is built.
    EXPECT_EXIT(parse("machine.cores_per_node = 0\n"),
                ::testing::ExitedWithCode(1),
                "config key 'machine.cores_per_node': must be >= 1");
    EXPECT_EXIT(parse("machine.l2.size = 0\n"),
                ::testing::ExitedWithCode(1),
                "config keys 'machine.l2.size' = 0, 'machine.l2.assoc' = "
                "1: the size must be a nonzero multiple of assoc x "
                "64-byte lines");
    EXPECT_EXIT(parse("machine.l2.assoc = 0\n"),
                ::testing::ExitedWithCode(1),
                "'machine.l2.size' = 8388608, 'machine.l2.assoc' = 0:");
    EXPECT_EXIT(parse("machine.l2.size = 64K\nmachine.l2.assoc = 3\n"),
                ::testing::ExitedWithCode(1),
                "'machine.l2.size' = 65536, 'machine.l2.assoc' = 3:");
    EXPECT_EXIT(parse("machine.rac.enabled = true\n"
                      "machine.level = full\n"
                      "machine.l2.impl = sram\n"
                      "machine.rac.size = 0\n"),
                ::testing::ExitedWithCode(1),
                "'machine.rac.size' = 0, 'machine.rac.assoc' = 8:");
}

/** The machine `cfg` emits, parsed back. */
MachineConfig
reparsed(const MachineConfig &cfg)
{
    return machineFromConfig(
        KvConfig::fromString(machineToConfigText(cfg)));
}

TEST(MachineConfigText, RoundTrips)
{
    MachineConfig cfg;
    cfg.name = "roundtrip";
    cfg.numCpus = 8;
    cfg.coresPerNode = 2;
    cfg.cpuModel = CpuModel::OutOfOrder;
    cfg.oooParams.window = 128;
    cfg.level = IntegrationLevel::FullInt;
    cfg.l2Impl = L2Impl::OnchipDram;
    cfg.l2 = CacheGeometry{1280 * kib, 5, 64};
    cfg.rac = true;
    cfg.replicateCode = true;
    cfg.workload.transactions = 77;
    cfg.workload.accountsPerBranch = 2000;
    cfg.workload.blockBufferBytes = 8 * mib + 64;
    cfg.workload.functionSkew = 0.1 + 0.2;
    EXPECT_EQ(ckpt::configBytes(reparsed(cfg)), ckpt::configBytes(cfg));
}

/** The repo's `.cfg` files: the golden fixture and the examples. */
std::vector<std::string>
shippedConfigs()
{
    std::vector<std::string> paths;
    for (const char *path : {"tests/golden/tiny.cfg",
                             "examples/configs/base_mp.cfg",
                             "examples/configs/full_integration_mp.cfg",
                             "examples/configs/cmp_ooo.cfg"})
        paths.push_back(std::string(ISIM_SOURCE_DIR) + "/" + path);
    return paths;
}

TEST(MachineConfigText, EveryFigureBarAndShippedConfigRoundTrips)
{
    std::size_t bars = 0;
    for (const FigureEntry &e : FigureRegistry::instance().entries()) {
        const FigureSpec spec = e.make();
        for (const FigureBar &bar : spec.bars) {
            EXPECT_EQ(ckpt::configBytes(reparsed(bar.config)),
                      ckpt::configBytes(bar.config))
                << e.id << " bar '" << bar.config.name << "'";
            ++bars;
        }
    }
    EXPECT_GE(bars, 100u);
    for (const std::string &path : shippedConfigs()) {
        const MachineConfig cfg = machineFromConfig(KvConfig::fromFile(path));
        EXPECT_EQ(ckpt::configBytes(reparsed(cfg)), ckpt::configBytes(cfg))
            << path;
    }
}

/** `v` moved to its `step`-th alternative value. */
template <typename T>
void
bump(T &v, int step)
{
    if constexpr (std::is_same_v<T, std::string>)
        v += std::string(static_cast<std::size_t>(step), 'x');
    else if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_same_v<T, double>)
        v = v != 0 ? v / (step + 1) : 0.5 / step;
    else if constexpr (std::is_enum_v<T>)
        v = static_cast<T>((static_cast<std::size_t>(v) + step) %
                           enumNames<T>.names.size());
    else
        v = v != 0 ? v * static_cast<T>(step + 1) : static_cast<T>(step);
}

TEST(MachineConfigText, EveryKeyedFieldIsEncodedAndEmitted)
{
    const ScopedPanicThrow guard;
    MachineConfig base;
    base.numCpus = 4;
    std::set<std::string> keys;
    for (const MachineField &f : machineFields()) {
        if (f.key == nullptr)
            continue;
        EXPECT_TRUE(keys.insert(f.key).second) << "duplicate " << f.key;
        // The first alternative value the machine still validates with.
        std::optional<MachineConfig> moved;
        for (int step = 1; step < 8 && !moved; ++step) {
            MachineConfig c = base;
            std::visit([&](auto *p) { bump(*p, step); }, f.ref(c));
            try {
                c.validate();
                moved = c;
            } catch (const PanicError &) {
            }
        }
        ASSERT_TRUE(moved) << f.key;
        EXPECT_NE(ckpt::configBytes(*moved), ckpt::configBytes(base))
            << f.key << " is not encoded";
        EXPECT_EQ(ckpt::configBytes(reparsed(*moved)),
                  ckpt::configBytes(*moved))
            << f.key << " does not survive emit -> parse";
    }
}

TEST(MachineConfigTextDeathTest, UnwritableNameIsFatal)
{
    MachineConfig cfg;
    cfg.name = "bar #3";
    EXPECT_EXIT(machineToConfigText(cfg), ::testing::ExitedWithCode(1),
                "config key 'machine.name': 'bar #3' cannot be written");
}

TEST(MachineFromConfig, ShippedExampleConfigsParse)
{
    for (const std::string &path : shippedConfigs()) {
        const MachineConfig cfg =
            machineFromConfig(KvConfig::fromFile(path));
        EXPECT_TRUE(validCombination(cfg.level, cfg.l2Impl)) << path;
        EXPECT_GE(cfg.numCpus, 1u);
    }
}

TEST(MachineFromConfigDeathTest, SubFootprintWorkloadValuesAreFatal)
{
    // Each case used to crash the run (SIGFPE or an assert) instead of
    // failing with a message that names its first key. Every pair
    // replaces that key's line in tiny.cfg.
    using Setting = std::pair<std::string, std::string>;
    const std::vector<std::vector<Setting>> cases = {
        {{"workload.log_buffer", "1"}},
        {{"workload.hot_metadata", "1"}},
        {{"workload.warm_metadata", "1"}},
        {{"workload.private_size", "1"}},
        {{"workload.db_text", "1"}},
        {{"workload.latches", "1"}},
        {{"workload.hash_latches", "2000"}},
        // Enough server pids to index past the latch array.
        {{"workload.redo_copy_latches", "2000"},
         {"workload.servers_per_cpu", "600"}},
        {{"workload.block_buffer", "1M"}},
    };
    std::ifstream in(std::string(ISIM_SOURCE_DIR) +
                     "/tests/golden/tiny.cfg");
    ASSERT_TRUE(in);
    std::vector<std::string> tiny;
    for (std::string line; std::getline(in, line);)
        tiny.push_back(line);
    for (const std::vector<Setting> &settings : cases) {
        std::ostringstream text;
        for (const std::string &line : tiny) {
            bool replaced = false;
            for (const Setting &s : settings)
                replaced = replaced || line.rfind(s.first + " ", 0) == 0;
            if (!replaced)
                text << line << "\n";
        }
        for (const Setting &s : settings)
            text << s.first << " = " << s.second << "\n";
        const std::string &key = settings.front().first;
        EXPECT_EXIT(Machine(machineFromConfig(
                                KvConfig::fromString(text.str())))
                        .run(),
                    ::testing::ExitedWithCode(1),
                    "config key.*'" + key + "'")
            << text.str();
    }
}

} // namespace
} // namespace isim
