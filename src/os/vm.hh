/**
 * @file
 * Virtual memory for the simulated machine: 8 KB pages (Alpha-style),
 * lazy frame allocation, and the page-placement policies the paper's
 * experiments depend on:
 *
 *  - Interleave: pages striped round-robin across node memories; this
 *    is how the SGA behaves without data placement and is why only
 *    1-in-8 of misses find their data locally (Section 3).
 *  - Local: first-touch allocation on the toucher's node (private
 *    stacks, per-CPU kernel data).
 *  - Replicate: one physical copy per node, same virtual page — the
 *    OS-based code replication evaluated with the RAC in Section 6.
 *
 * Frames are handed out pseudo-randomly within a node's memory window
 * (no page colouring), so a hot footprint scattered over a large
 * physical space exhibits realistic direct-mapped conflict behaviour.
 */

#ifndef ISIM_OS_VM_HH
#define ISIM_OS_VM_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/random.hh"
#include "src/base/types.hh"
#include "src/ckpt/fwd.hh"
#include "src/coherence/directory.hh"

namespace isim {

/** Placement policy for a virtual region. */
enum class PlacePolicy {
    Interleave,
    Local,
    Replicate,
};

/** Configuration of the VM layer. */
struct VmConfig
{
    unsigned pageBytes = 8 * kib;
    HomeMap homeMap;
    /** CPU cores per node/chip (CMP extension); cores map onto nodes
     *  as core / coresPerNode. */
    unsigned coresPerNode = 1;
    /**
     * OS page colouring: when > 1, a virtual page's frame is chosen
     * in the colour class (vpn + segment offset) % pageColors, so a
     * contiguous virtual range tiles large physically-indexed caches
     * instead of colliding at random, while different segments start
     * at decorrelated colours (all segment bases are power-of-two
     * aligned, so colouring by raw vpn would stack every segment onto
     * the same colours). 1 disables (the default — the paper's
     * results assume effectively random placement, which is what a
     * 900 MB SGA on a busy machine gets). Must divide the per-node
     * frame count.
     */
    unsigned pageColors = 1;
    std::uint64_t seed = 0x5eedf00d;
};

/**
 * Machine-wide virtual memory. A single virtual address space is
 * shared (matching Oracle's SGA being attached at the same address in
 * every process); per-process private areas simply occupy disjoint
 * virtual ranges. Translation is per-node because replicated regions
 * map one virtual page to a different frame on each node.
 */
class VirtualMemory
{
  public:
    explicit VirtualMemory(const VmConfig &config);

    unsigned pageBytes() const { return config_.pageBytes; }
    const HomeMap &homeMap() const { return config_.homeMap; }

    /** Declare the placement policy of a virtual range. */
    void setPolicy(Addr vbase, std::uint64_t size, PlacePolicy policy,
                   std::string name = "");

    /**
     * Enable per-region profiling: every translation is attributed to
     * its region, and unique 64 B lines are tracked. Costs one region
     * lookup per access; off by default.
     */
    void enableProfiling(bool on) { profiling_ = on; }

    /** Profiling data for one declared region. */
    struct RegionProfile
    {
        std::string name;
        Addr vbase = 0;
        std::uint64_t size = 0;
        PlacePolicy policy = PlacePolicy::Interleave;
        std::uint64_t accesses = 0;
        std::uint64_t uniqueLines = 0;
    };
    std::vector<RegionProfile> regionProfiles() const;

    /**
     * Region index backing a physical address (-1 if unknown). Only
     * populated while profiling is enabled; indices match the order of
     * regionProfiles().
     */
    int regionIndexOfPaddr(Addr paddr) const;

    /**
     * Translate; allocates the backing frame(s) on first touch.
     * `core` is the CPU core performing the access; its node (chip)
     * is what matters for Local and Replicate regions.
     */
    Addr translate(Addr vaddr, NodeId core);

    /** Node (chip) a core belongs to. */
    NodeId nodeOfCore(NodeId core) const
    {
        return core / config_.coresPerNode;
    }

    /** Frames allocated on each node so far. */
    std::uint64_t framesAllocated(NodeId node) const;

    /**
     * Checkpoint the page tables, frame allocator and RNG. Region
     * policy declarations are configuration (the engine re-declares
     * them on construction) and profiling attribution is diagnostic
     * state; neither is part of the bit-exactness contract. The TLB is
     * a pure functional cache and is simply cleared on restore.
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

    /**
     * Bytes of the record runs saveState writes: page-table entries,
     * replicated pages with their copies and used frames. Its fixed
     * fields are not counted.
     */
    std::size_t savedRecordBytes() const;

  private:
    struct Region
    {
        Addr vbase;
        Addr vend;
        PlacePolicy policy;
        std::string name;
        // Profiling (mutable so lookups can count).
        std::uint64_t accesses = 0;
        std::unordered_set<std::uint64_t> lines;
    };

    Region *regionOf(Addr vaddr);
    Addr allocFrame(NodeId node, std::uint64_t color_hint);

    // ckpt: transient(config_): construction parameter, identical by contract
    VmConfig config_;
    // ckpt: transient(pageShift_): derived from config_ at construction
    unsigned pageShift_;
    Rng rng_;
    // ckpt: transient(profiling_): observability toggle, reapplied per run
    bool profiling_ = false;
    // ckpt: transient(regions_): region table rebuilt by setup, identical by contract
    std::vector<Region> regions_;
    std::unordered_map<std::uint64_t, Addr> pages_; //!< vpn -> frame base
    std::unordered_map<std::uint64_t, std::vector<Addr>> replicated_;
    std::vector<std::unordered_set<std::uint64_t>> usedFrames_;
    std::vector<std::uint64_t> allocCount_;
    // ckpt: transient(frameRegion_): profiling attribution diagnostic only
    std::unordered_map<std::uint64_t, std::uint16_t> frameRegion_;

    /** Small translation cache (functional only; no TLB-miss timing). */
    struct TlbEntry
    {
        std::uint64_t vpn = ~0ull;
        NodeId node = invalidNode;
        Addr frame = 0;
    };
    static constexpr std::size_t tlbSize = 4096;
    std::vector<TlbEntry> tlb_;
};

} // namespace isim

#endif // ISIM_OS_VM_HH
