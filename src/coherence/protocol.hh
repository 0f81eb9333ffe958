/**
 * @file
 * The coherent memory system: per-node two-level cache hierarchies
 * (optionally with a remote access cache) kept coherent by a full-map
 * directory MSI protocol, with every L2 miss classified the way the
 * paper's figures need it (local / remote-clean 2-hop / remote-dirty
 * 3-hop, split into instruction and data misses).
 *
 * Timing is table-driven per the paper's methodology: the protocol
 * resolves *state* exactly (who holds what, who gets invalidated, where
 * the data comes from) and then charges the end-to-end latency of the
 * resulting class from the active Figure-3 latency table.
 */

#ifndef ISIM_COHERENCE_PROTOCOL_HH
#define ISIM_COHERENCE_PROTOCOL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/ckpt/fwd.hh"
#include "src/coherence/directory.hh"
#include "src/mem/cache.hh"
#include "src/mem/rac.hh"
#include "src/noc/network.hh"
#include "src/timing/latency_config.hh"

namespace isim {

namespace obs {
class Tracer;
}

namespace stats {
class Registry;
}

/** Kind of memory reference issued by a CPU. */
enum class RefType : std::uint8_t { IFetch, Load, Store };

/** Where an access was satisfied. */
enum class MissClass : std::uint8_t {
    L1Hit,
    L2Hit,
    Local,       //!< L2 miss satisfied by the local home (or the RAC)
    RemoteClean, //!< 2-hop miss, data from a remote home memory
    RemoteDirty, //!< 3-hop miss, data dirty in another node's cache/RAC
};

const char *missClassName(MissClass cls);

/**
 * Deliberate protocol bugs, injectable for tests *of the verification
 * layer itself* (mutation testing): each mutant must be caught by the
 * model checker (tools/mcheck) and by the runtime invariant auditor
 * (src/verify/invariants.hh). None of these alter behavior unless a
 * test opts in via MemorySystem::setMutationForTest.
 */
enum class ProtocolMutation : std::uint8_t {
    None = 0,
    /** A store upgrade leaves the other sharers' copies intact. */
    SkipUpgradeInval,
    /** A read miss on a Shared line doesn't record the new sharer. */
    ForgetSharerBit,
    /** A 3-hop dirty miss is misclassified as a 2-hop clean miss. */
    MisclassifyDirty,
    /** Lines leaving a node never notify the directory. */
    DropVictimRelease,
    /** An L2 eviction forgets to back-invalidate the L1s. */
    SkipVictimBackInval,
};

const char *protocolMutationName(ProtocolMutation m);

/** Result of one memory access. */
struct AccessOutcome
{
    MissClass cls = MissClass::L1Hit;
    Cycles stall = 0;    //!< stall cycles beyond the pipelined L1 hit
    bool racHit = false; //!< data came from the local RAC
    bool upgrade = false; //!< ownership-only transaction (data present)
    bool fromRemoteRac = false; //!< 3-hop served by a remote node's RAC
    bool victimHit = false; //!< recovered from the L2 victim buffer
};

/** Per-node protocol statistics; the raw material of every figure. */
struct NodeProtocolStats
{
    // L2 misses by figure category (upgrades included, see `upgrades`).
    std::uint64_t instrLocal = 0;
    std::uint64_t instrRemote = 0;
    std::uint64_t dataLocal = 0;
    std::uint64_t dataRemoteClean = 0;
    std::uint64_t dataRemoteDirty = 0;

    std::uint64_t upgrades = 0;          //!< ownership-only transactions
    std::uint64_t intraNodeInvals = 0;   //!< sibling-L1 write propagation
    std::uint64_t storeRefs = 0;         //!< all store references
    std::uint64_t storesCausingInval = 0;
    std::uint64_t invalidationsSent = 0; //!< copies invalidated remotely
    std::uint64_t writebacksToHome = 0;
    std::uint64_t replacementHints = 0;
    std::uint64_t victimHits = 0; //!< L2 victim-buffer recoveries
    /**
     * Stores that missed the L2 but found the data Shared in the RAC,
     * so only ownership was acquired. These are L2 misses that appear
     * in neither the per-class miss counters nor `victimHits`; the
     * invariant auditor's conservation identity
     *   l2.misses == totalL2Misses() + victimHits + racUpgrades
     * needs them split out.
     */
    std::uint64_t racUpgrades = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchHits = 0; //!< demand hits on prefetched lines
    std::uint64_t mcQueueCycles = 0; //!< stall added by MC contention

    std::uint64_t totalL2Misses() const
    {
        return instrLocal + instrRemote + dataLocal + dataRemoteClean +
               dataRemoteDirty;
    }

    NodeProtocolStats &operator+=(const NodeProtocolStats &o);

    /**
     * Register every counter under `prefix` (e.g. "node0.l2"): the
     * five miss classes as `prefix.miss.<class>` plus the protocol
     * event counters. The struct must outlive the registry.
     */
    void registerStats(stats::Registry &r, const std::string &prefix) const;
};

/** Static configuration of the memory system. */
struct MemSysConfig
{
    unsigned numNodes = 1;
    /**
     * CPU cores per node (chip multiprocessing, the paper's Section 8
     * outlook). Cores on a chip have private L1s and share the node's
     * L2 (and RAC); intra-chip write propagation invalidates sibling
     * L1 copies with no off-chip traffic.
     */
    unsigned coresPerNode = 1;
    unsigned lineBytes = 64;
    /**
     * L2 victim-buffer entries (the "L2 Victim Buffers" of the 21364
     * block diagram, paper Figure 1): a small fully associative FIFO
     * that catches L2 victims; a hit swaps the line back at near-L2
     * cost instead of re-fetching it, absorbing part of the conflict
     * misses a direct-mapped L2 produces. 0 disables.
     */
    unsigned victimBufferEntries = 0;
    /**
     * Sequential (next-line) L2 prefetch degree: on a demand L2 miss,
     * also fetch the following N lines if uncontended (their directory
     * state is Uncached or Shared). 0 disables. Streaming workloads
     * (DSS scans) benefit; OLTP's pointer-dense accesses barely do —
     * the contrast `isim-fig run ext-prefetch` quantifies.
     */
    unsigned prefetchDegree = 0;
    /**
     * Memory-controller occupancy per serviced miss, in cycles
     * (0 = uncontended, the paper's latency-table methodology). When
     * set, each home node's controller is a single server: misses
     * that find it busy queue behind it, adding visible stall. This
     * models the bandwidth side of integration (Section 4 notes the
     * integrated MC's higher achievable bandwidth).
     */
    Cycles mcOccupancy = 0;
    std::uint64_t l1Size = 64 * kib;
    unsigned l1Assoc = 2;
    CacheGeometry l2{8 * mib, 1, 64};
    bool racEnabled = false;
    CacheGeometry rac{8 * mib, 8, 64};
    LatencyTable lat;

    void validate() const;
};

/**
 * The machine-wide coherent memory system. One instance serves all
 * nodes; accesses are presented in global simulated-time order by the
 * simulation loop, so the protocol can resolve each one atomically
 * (a sequentially consistent interleaving).
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSysConfig &config);

    const MemSysConfig &config() const { return config_; }
    const HomeMap &homeMap() const { return homeMap_; }
    unsigned lineBits() const { return lineBits_; }

    /**
     * Perform one access from a CPU core (core ids are global:
     * node = core / coresPerNode). `paddr` is a byte address. `now`
     * is the requester's local time, used only by the optional
     * memory-controller contention model.
     */
    AccessOutcome access(NodeId core, RefType type, Addr paddr,
                         Tick now = 0);

    unsigned totalCores() const
    {
        return config_.numNodes * config_.coresPerNode;
    }
    NodeId nodeOfCore(NodeId core) const
    {
        return core / config_.coresPerNode;
    }

    const NodeProtocolStats &nodeStats(NodeId node) const;
    NodeProtocolStats aggregateStats() const;

    /** Interconnect traffic from directory transactions (always on). */
    const NocCounters &nocStats() const { return nocStats_; }

    /** L1 caches are per *core* (global core id). */
    const Cache &l1i(NodeId core) const;
    const Cache &l1d(NodeId core) const;
    const Cache &l2(NodeId node) const { return nodes_[node]->l2; }
    bool hasRac() const { return config_.racEnabled; }
    bool hasVictimBuffer() const
    {
        return config_.victimBufferEntries > 0;
    }
    const Rac &rac(NodeId node) const;
    RacCounters aggregateRacCounters() const;
    const Directory &directory() const { return dir_; }

    /**
     * The node's L2 victim FIFO, oldest first (exposed for the
     * verification layer; empty when victim buffers are disabled).
     */
    const std::deque<std::pair<Addr, LineState>> &
    victimBuffer(NodeId node) const
    {
        return nodes_[node]->victims;
    }

    /**
     * Number of access() calls since construction / the last
     * resetStats(). Equals the summed L1 access counters — an identity
     * the invariant auditor checks.
     */
    std::uint64_t transitionCount() const { return transitionCount_; }

    /**
     * Inject a deliberate protocol bug (mutation testing of the
     * verification layer). Tests only; never set during measurement.
     */
    void setMutationForTest(ProtocolMutation m) { mutation_ = m; }

    /** Latency charged for a class (exposed for the CPU models). */
    Cycles latencyFor(MissClass cls, bool rac_hit, bool from_remote_rac,
                      bool upgrade = false) const;

    /**
     * Full cross-check of directory vs cache states; panics on any
     * violation. O(total cache lines); used by tests and (optionally)
     * by the simulation loop in debug runs.
     */
    void checkInvariants() const;

    /** Zero all statistics; cache and directory contents are kept. */
    void resetStats();

    /**
     * Checkpoint every cache array, victim buffer, RAC, directory
     * entry and protocol/NoC counter. The latency table and geometry
     * are configuration (restore verifies cache geometries match).
     */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

    /**
     * Bytes of the record runs saveState writes: directory entries,
     * valid cache lines and victim-buffer entries. Its fixed fields
     * are not counted.
     */
    std::size_t savedRecordBytes() const;

    /**
     * Optional observer invoked on every counted L2 miss (profiling;
     * adds one indirect call per miss when set).
     */
    using MissHook = std::function<void(Addr paddr, RefType type,
                                        MissClass cls)>;
    void setMissHook(MissHook hook) { missHook_ = std::move(hook); }

    /**
     * Attach the observability tracer (nullptr detaches). Tracing
     * never alters protocol state or charged latencies; with no
     * tracer (or a disabled one) the hot path pays one predictable
     * branch per access.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }
    obs::Tracer *tracer() const { return tracer_; }

  private:
    struct Node
    {
        Node(NodeId id, const MemSysConfig &cfg);
        std::vector<Cache> l1i; //!< one per core on the chip
        std::vector<Cache> l1d;
        Cache l2;
        /** Victim FIFO: (line, state), newest at the back. */
        std::deque<std::pair<Addr, LineState>> victims;
        std::unique_ptr<Rac> rac;
        NodeProtocolStats stats;
    };

    struct DirResult
    {
        MissClass cls = MissClass::Local;
        bool fromRemoteRac = false;
        LineState grant = LineState::Shared; //!< state granted on fill
        /** Former owner probed during the transaction (tracing). */
        NodeId peer = invalidNode;
    };

    /** What a probe of a (former) owner found. */
    struct ProbeResult
    {
        bool wasDirty = false;       //!< a Modified copy existed
        bool dirtyInRacOnly = false; //!< ... and only in the RAC
    };

    NodeId homeOf(Addr line_addr) const
    {
        return homeMap_.homeOfLine(line_addr, lineBits_);
    }

    /** The access path proper (access() wraps it with auditing). */
    AccessOutcome accessImpl(NodeId core, RefType type, Addr paddr,
                             Tick now);

    /** Directory transaction for a read (load or ifetch) L2+RAC miss. */
    DirResult dirRead(NodeId node, Addr line_addr);
    /** Directory transaction for a store L2+RAC miss. */
    DirResult dirWrite(NodeId node, Addr line_addr);
    /** Ownership acquisition for a line the node already holds Shared. */
    MissClass upgradeTx(NodeId node, Addr line_addr);
    /** Finish an access whose line is (now) resident in the L2. */
    AccessOutcome l2PresentPath(NodeId node, Node &nd, Cache &l1,
                                CacheLine &l2line, RefType type,
                                Addr line);

    /** Remove every copy at a node, reporting what was found. */
    ProbeResult invalidateNode(NodeId node, Addr line_addr);
    /** Downgrade E/M -> S at the owner, reporting what was found. */
    ProbeResult downgradeNode(NodeId node, Addr line_addr);

    /** Handle an L2 fill's displaced victim (inclusion, RAC, dir). */
    void handleL2Victim(NodeId node, const Victim &victim);
    /** Release a line that finally left the node's L2+victim path. */
    void releaseLine(NodeId node, Addr line_addr, LineState state);
    /** Look up (and remove) a line from the node's victim buffer. */
    bool victimLookup(Node &nd, Addr line_addr, LineState &state_out);
    /** Issue next-line prefetches after a demand miss on `line`. */
    void issuePrefetches(NodeId node, Addr line_addr);
    /** Handle a RAC fill's displaced victim. */
    void handleRacVictim(NodeId node, const Victim &victim);
    /** Install a line into the node's RAC with victim handling. */
    void racInstall(NodeId node, Addr line_addr, LineState state);
    /** Fill the given L1, checking the dirty-victim invariant. */
    void fillL1(Node &nd, Cache &l1, Addr line_addr, LineState state);
    /** Fill the L2 (with victim handling) and the given L1. */
    void fillHierarchy(NodeId node, Cache &l1, Addr line_addr,
                       LineState state);
    /** Invalidate the line in every sibling L1 except `self`. */
    void invalidateSiblingL1s(Node &nd, const Cache *self,
                              Addr line_addr);
    /** Downgrade owned sibling L1 copies to Shared (load snoop). */
    void downgradeSiblingL1s(Node &nd, const Cache *self,
                             Addr line_addr);
    /** Invalidate the line in every L1 of the node. */
    void invalidateAllL1s(Node &nd, Addr line_addr);

    void countMiss(NodeId node, RefType type, MissClass cls,
                   Addr line_addr);

    /** Queueing delay at the home MC for a miss arriving at `now`. */
    Cycles mcQueueDelay(NodeId home, Tick now);

    /** One logical interconnect message leg of a transaction. */
    struct NocLeg
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        unsigned bytes = 0;
    };

    /**
     * Reconstruct the message legs of a directory transaction
     * (request to home, optional probe to the former owner, data back
     * to the requester). Fills `legs` and returns the leg count (<= 3).
     */
    unsigned nocLegsFor(NodeId node, NodeId home, NodeId peer,
                        NocLeg legs[3]) const;

    /** Account the legs of one transaction in nocStats_. */
    void countNocLegs(const NocLeg legs[3], unsigned nlegs);

    /** Emit directory + NoC trace events for a directory-path miss. */
    void traceDirectoryMiss(NodeId core, NodeId node, NodeId home,
                            NodeId peer, RefType type,
                            const AccessOutcome &out, Addr line_addr,
                            Tick now);

    // ckpt: transient(tracer_): observer hook, reattached by the harness
    obs::Tracer *tracer_ = nullptr;
    // ckpt: transient(missHook_): verification callback, reinstalled per run
    MissHook missHook_;
    // ckpt: transient(mutation_): fault-injection setting, reapplied per run
    ProtocolMutation mutation_ = ProtocolMutation::None;
    std::uint64_t transitionCount_ = 0;
    std::vector<Tick> mcBusyUntil_; //!< per-home controller horizon
    // ckpt: transient(config_): construction parameter, identical by contract
    MemSysConfig config_;
    // ckpt: transient(homeMap_): derived from config_ at construction
    HomeMap homeMap_;
    // ckpt: transient(lineBits_): derived from the line size at construction
    unsigned lineBits_;
    Directory dir_;
    // ckpt: transient(nocTopo_): stateless geometry derived from config_
    TorusTopology nocTopo_;
    NocCounters nocStats_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

} // namespace isim

#endif // ISIM_COHERENCE_PROTOCOL_HH
