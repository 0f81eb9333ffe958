/**
 * @file
 * MemorySystem implementation: a directory MESI protocol over
 * two-level inclusive hierarchies with an optional remote access
 * cache.
 *
 * State-machine conventions used throughout:
 *  - The directory collapses Exclusive and Modified into one "owned"
 *    state (stored as LineState::Modified in DirEntry); probing the
 *    owner's caches distinguishes clean (Exclusive) from dirty
 *    (Modified), which decides 2-hop vs 3-hop classification exactly
 *    as hardware would.
 *  - L1 states never exceed the L2 state; stores flip both the L1 and
 *    L2 lines to Modified in one step (same-node bookkeeping, no
 *    latency), so a silent E->M upgrade is visible at the node level.
 *  - A RAC entry in an owned state is an ownership *marker*: it
 *    appears only while the L2 does not hold the line (the line was
 *    evicted from the L2 and retained in the RAC).
 *  - Replacement hints / write-backs are sent exactly when the *last*
 *    copy leaves a node, so the directory's sharer sets are exact.
 */

#include "src/coherence/protocol.hh"

#include <algorithm>

#include "src/ckpt/serializer.hh"
#include "src/obs/tracer.hh"
#include "src/stats/registry.hh"

#ifdef ISIM_CHECK_INVARIANTS
#include "src/verify/invariants.hh"
#endif

namespace isim {

const char *
missClassName(MissClass cls)
{
    switch (cls) {
      case MissClass::L1Hit:
        return "L1Hit";
      case MissClass::L2Hit:
        return "L2Hit";
      case MissClass::Local:
        return "Local";
      case MissClass::RemoteClean:
        return "RemoteClean";
      case MissClass::RemoteDirty:
        return "RemoteDirty";
    }
    return "?";
}

const char *
protocolMutationName(ProtocolMutation m)
{
    switch (m) {
      case ProtocolMutation::None:
        return "None";
      case ProtocolMutation::SkipUpgradeInval:
        return "SkipUpgradeInval";
      case ProtocolMutation::ForgetSharerBit:
        return "ForgetSharerBit";
      case ProtocolMutation::MisclassifyDirty:
        return "MisclassifyDirty";
      case ProtocolMutation::DropVictimRelease:
        return "DropVictimRelease";
      case ProtocolMutation::SkipVictimBackInval:
        return "SkipVictimBackInval";
    }
    return "?";
}

NodeProtocolStats &
NodeProtocolStats::operator+=(const NodeProtocolStats &o)
{
    instrLocal += o.instrLocal;
    instrRemote += o.instrRemote;
    dataLocal += o.dataLocal;
    dataRemoteClean += o.dataRemoteClean;
    dataRemoteDirty += o.dataRemoteDirty;
    upgrades += o.upgrades;
    storeRefs += o.storeRefs;
    storesCausingInval += o.storesCausingInval;
    invalidationsSent += o.invalidationsSent;
    intraNodeInvals += o.intraNodeInvals;
    writebacksToHome += o.writebacksToHome;
    victimHits += o.victimHits;
    racUpgrades += o.racUpgrades;
    prefetchesIssued += o.prefetchesIssued;
    prefetchHits += o.prefetchHits;
    mcQueueCycles += o.mcQueueCycles;
    replacementHints += o.replacementHints;
    return *this;
}

void
MemSysConfig::validate() const
{
    // Model limits: the directory's sharer set is a 32-bit mask, and
    // a chip holds at most 16 cores (the modelled CMP range).
    if (numNodes < 1 || numNodes > 32) {
        isim_fatal("%u nodes: the model supports 1..32 nodes (the "
                   "directory's sharer mask is 32 bits)",
                   numNodes);
    }
    if (coresPerNode < 1 || coresPerNode > 16) {
        isim_fatal("%u cores per node: the model supports 1..16 cores "
                   "per chip",
                   coresPerNode);
    }
    isim_assert(isPowerOf2(lineBytes));
    CacheGeometry l1{l1Size, l1Assoc, lineBytes};
    l1.validate();
    l2.validate();
    isim_assert(l2.lineBytes == lineBytes);
    if (racEnabled) {
        rac.validate();
        isim_assert(rac.lineBytes == lineBytes);
    }
}

MemorySystem::Node::Node(NodeId id, const MemSysConfig &cfg)
    : l2("l2." + std::to_string(id), cfg.l2)
{
    const CacheGeometry l1geom{cfg.l1Size, cfg.l1Assoc, cfg.lineBytes};
    l1i.reserve(cfg.coresPerNode);
    l1d.reserve(cfg.coresPerNode);
    for (unsigned c = 0; c < cfg.coresPerNode; ++c) {
        const std::string tag =
            std::to_string(id) + "." + std::to_string(c);
        l1i.emplace_back("l1i" + tag, l1geom);
        l1d.emplace_back("l1d" + tag, l1geom);
    }
    if (cfg.racEnabled)
        rac = std::make_unique<Rac>(id, cfg.rac);
}

namespace {

/** The config after validate(): runs before any member it sizes. */
const MemSysConfig &
validated(const MemSysConfig &config)
{
    config.validate();
    return config;
}

} // namespace

MemorySystem::MemorySystem(const MemSysConfig &config)
    : config_(validated(config)),
      homeMap_{nodeWindowBits, config.numNodes},
      lineBits_(floorLog2(config.lineBytes)),
      dir_(homeMap_, lineBits_),
      nocTopo_(config.numNodes)
{
    mcBusyUntil_.assign(config_.numNodes, 0);
    nodes_.reserve(config_.numNodes);
    for (NodeId n = 0; n < config_.numNodes; ++n)
        nodes_.push_back(std::make_unique<Node>(n, config_));
}

void
NodeProtocolStats::registerStats(stats::Registry &r,
                                 const std::string &prefix) const
{
    const NodeProtocolStats *s = this;
    r.counter(prefix + ".miss.instr_local",
              "instruction misses to the local home", "misses",
              [s] { return s->instrLocal; });
    r.counter(prefix + ".miss.instr_remote",
              "instruction misses to a remote home", "misses",
              [s] { return s->instrRemote; });
    r.counter(prefix + ".miss.local",
              "data misses satisfied locally (home or RAC)", "misses",
              [s] { return s->dataLocal; });
    r.counter(prefix + ".miss.remote_clean",
              "2-hop data misses, data from a remote home", "misses",
              [s] { return s->dataRemoteClean; });
    r.counter(prefix + ".miss.remote_dirty",
              "3-hop data misses, data dirty in a remote cache", "misses",
              [s] { return s->dataRemoteDirty; });
    r.counter(prefix + ".upgrades", "ownership-only transactions", "ops",
              [s] { return s->upgrades; });
    r.counter(prefix + ".intra_node_invals",
              "sibling-L1 write propagation invalidations", "ops",
              [s] { return s->intraNodeInvals; });
    r.counter(prefix + ".store_refs", "store references", "refs",
              [s] { return s->storeRefs; });
    r.counter(prefix + ".stores_causing_inval",
              "stores that invalidated at least one remote copy", "refs",
              [s] { return s->storesCausingInval; });
    r.counter(prefix + ".invals_sent",
              "remote copies invalidated by this node's stores", "ops",
              [s] { return s->invalidationsSent; });
    r.counter(prefix + ".writebacks_to_home",
              "dirty victims written back to their home", "lines",
              [s] { return s->writebacksToHome; });
    r.counter(prefix + ".replacement_hints",
              "clean-victim replacement hints to the directory", "ops",
              [s] { return s->replacementHints; });
    r.counter(prefix + ".victim_hits",
              "misses recovered from the L2 victim buffer", "ops",
              [s] { return s->victimHits; });
    r.counter(prefix + ".rac_upgrades",
              "store misses finding the data Shared in the RAC", "ops",
              [s] { return s->racUpgrades; });
    r.counter(prefix + ".prefetches_issued",
              "sequential prefetches issued", "ops",
              [s] { return s->prefetchesIssued; });
    r.counter(prefix + ".prefetch_hits",
              "demand hits on prefetched lines", "ops",
              [s] { return s->prefetchHits; });
    r.counter(prefix + ".mc_queue_cycles",
              "stall added by memory-controller contention", "cycles",
              [s] { return s->mcQueueCycles; });
}

const NodeProtocolStats &
MemorySystem::nodeStats(NodeId node) const
{
    return nodes_[node]->stats;
}

const Cache &
MemorySystem::l1i(NodeId core) const
{
    return nodes_[nodeOfCore(core)]
        ->l1i[core % config_.coresPerNode];
}

const Cache &
MemorySystem::l1d(NodeId core) const
{
    return nodes_[nodeOfCore(core)]
        ->l1d[core % config_.coresPerNode];
}

NodeProtocolStats
MemorySystem::aggregateStats() const
{
    NodeProtocolStats total;
    for (const auto &node : nodes_)
        total += node->stats;
    return total;
}

const Rac &
MemorySystem::rac(NodeId node) const
{
    isim_assert(config_.racEnabled);
    return *nodes_[node]->rac;
}

RacCounters
MemorySystem::aggregateRacCounters() const
{
    RacCounters total;
    for (const auto &node : nodes_) {
        if (!node->rac)
            continue;
        const RacCounters &c = node->rac->counters();
        total.lookups += c.lookups;
        total.hits += c.hits;
        total.allocations += c.allocations;
        total.dirtyInsertions += c.dirtyInsertions;
        total.dirtyServicesToRemote += c.dirtyServicesToRemote;
        total.writebacksToHome += c.writebacksToHome;
    }
    return total;
}

void
MemorySystem::resetStats()
{
    transitionCount_ = 0;
    nocStats_ = NocCounters{};
    for (auto &node : nodes_) {
        node->stats = NodeProtocolStats{};
        for (auto &c : node->l1i)
            c.resetCounters();
        for (auto &c : node->l1d)
            c.resetCounters();
        node->l2.resetCounters();
        if (node->rac)
            node->rac->resetCounters();
    }
}

namespace {

void
saveNodeStats(ckpt::Serializer &s, const NodeProtocolStats &st)
{
    s.u64(st.instrLocal);
    s.u64(st.instrRemote);
    s.u64(st.dataLocal);
    s.u64(st.dataRemoteClean);
    s.u64(st.dataRemoteDirty);
    s.u64(st.upgrades);
    s.u64(st.intraNodeInvals);
    s.u64(st.storeRefs);
    s.u64(st.storesCausingInval);
    s.u64(st.invalidationsSent);
    s.u64(st.writebacksToHome);
    s.u64(st.replacementHints);
    s.u64(st.victimHits);
    s.u64(st.racUpgrades);
    s.u64(st.prefetchesIssued);
    s.u64(st.prefetchHits);
    s.u64(st.mcQueueCycles);
}

void
restoreNodeStats(ckpt::Deserializer &d, NodeProtocolStats &st)
{
    st.instrLocal = d.u64();
    st.instrRemote = d.u64();
    st.dataLocal = d.u64();
    st.dataRemoteClean = d.u64();
    st.dataRemoteDirty = d.u64();
    st.upgrades = d.u64();
    st.intraNodeInvals = d.u64();
    st.storeRefs = d.u64();
    st.storesCausingInval = d.u64();
    st.invalidationsSent = d.u64();
    st.writebacksToHome = d.u64();
    st.replacementHints = d.u64();
    st.victimHits = d.u64();
    st.racUpgrades = d.u64();
    st.prefetchesIssued = d.u64();
    st.prefetchHits = d.u64();
    st.mcQueueCycles = d.u64();
}

} // namespace

void
MemorySystem::saveState(ckpt::Serializer &s) const
{
    s.u64(transitionCount_);
    s.u64(nocStats_.messages);
    s.u64(nocStats_.ctrlMessages);
    s.u64(nocStats_.dataMessages);
    s.u64(nocStats_.bytes);
    s.u64(nocStats_.hops);
    s.u64(mcBusyUntil_.size());
    for (Tick t : mcBusyUntil_)
        s.u64(t);
    dir_.saveState(s);
    s.u64(nodes_.size());
    for (const auto &node : nodes_) {
        saveNodeStats(s, node->stats);
        node->l2.saveState(s);
        s.u64(node->victims.size());
        for (const auto &[line_addr, state] : node->victims) {
            s.u64(line_addr);
            s.u8(static_cast<std::uint8_t>(state));
        }
        s.b(node->rac != nullptr);
        if (node->rac)
            node->rac->saveState(s);
        s.u64(node->l1i.size());
        for (const Cache &c : node->l1i)
            c.saveState(s);
        for (const Cache &c : node->l1d)
            c.saveState(s);
    }
}

std::size_t
MemorySystem::savedRecordBytes() const
{
    // A victim-buffer entry is a u64 line and a u8 state.
    constexpr std::size_t victimBytes = 8 + 1;
    std::uint64_t lines = 0;
    std::size_t bytes = dir_.population() * Directory::savedEntryBytes;
    for (const auto &node : nodes_) {
        lines += node->l2.array().validLines();
        if (node->rac)
            lines += node->rac->cache().array().validLines();
        for (const Cache &c : node->l1i)
            lines += c.array().validLines();
        for (const Cache &c : node->l1d)
            lines += c.array().validLines();
        bytes += node->victims.size() * victimBytes;
    }
    return bytes + lines * CacheArray::savedLineBytes;
}

void
MemorySystem::restoreState(ckpt::Deserializer &d)
{
    transitionCount_ = d.u64();
    nocStats_.messages = d.u64();
    nocStats_.ctrlMessages = d.u64();
    nocStats_.dataMessages = d.u64();
    nocStats_.bytes = d.u64();
    nocStats_.hops = d.u64();
    if (d.u64() != mcBusyUntil_.size())
        isim_fatal("checkpoint node count mismatch (mc horizons)");
    for (Tick &t : mcBusyUntil_)
        t = d.u64();
    dir_.restoreState(d);
    if (d.u64() != nodes_.size())
        isim_fatal("checkpoint node count mismatch");
    for (auto &node : nodes_) {
        restoreNodeStats(d, node->stats);
        node->l2.restoreState(d);
        node->victims.clear();
        const std::uint64_t nvictims = d.u64();
        for (std::uint64_t i = 0; i < nvictims; ++i) {
            const Addr line_addr = d.u64();
            const std::uint8_t state = d.u8();
            if (state >
                static_cast<std::uint8_t>(LineState::Modified))
                isim_fatal("checkpoint corrupt: victim state %u",
                           state);
            node->victims.emplace_back(
                line_addr, static_cast<LineState>(state));
        }
        const bool has_rac = d.b();
        if (has_rac != (node->rac != nullptr))
            isim_fatal("checkpoint RAC presence mismatch: file %s a "
                       "RAC, this machine %s",
                       has_rac ? "has" : "lacks",
                       node->rac ? "has one" : "does not");
        if (node->rac)
            node->rac->restoreState(d);
        if (d.u64() != node->l1i.size())
            isim_fatal("checkpoint cores-per-node mismatch");
        for (Cache &c : node->l1i)
            c.restoreState(d);
        for (Cache &c : node->l1d)
            c.restoreState(d);
    }
}

Cycles
MemorySystem::latencyFor(MissClass cls, bool rac_hit, bool from_remote_rac,
                         bool upgrade) const
{
    const LatencyTable &lat = config_.lat;
    switch (cls) {
      case MissClass::L1Hit:
        return 0;
      case MissClass::L2Hit:
        return lat.l2Hit;
      case MissClass::Local:
        return rac_hit ? lat.racHit : lat.local;
      case MissClass::RemoteClean:
        return upgrade ? lat.upgradeRemote : lat.remote;
      case MissClass::RemoteDirty:
        return from_remote_rac ? lat.remoteRacDirty : lat.remoteDirty;
    }
    return 0;
}

void
MemorySystem::countMiss(NodeId node, RefType type, MissClass cls,
                        Addr line_addr)
{
    if (missHook_)
        missHook_(line_addr << lineBits_, type, cls);
    NodeProtocolStats &s = nodes_[node]->stats;
    const bool instr = type == RefType::IFetch;
    switch (cls) {
      case MissClass::Local:
        if (instr)
            ++s.instrLocal;
        else
            ++s.dataLocal;
        break;
      case MissClass::RemoteClean:
        if (instr)
            ++s.instrRemote;
        else
            ++s.dataRemoteClean;
        break;
      case MissClass::RemoteDirty:
        isim_assert(!instr, "instruction fetch hit dirty data");
        ++s.dataRemoteDirty;
        break;
      default:
        isim_panic("countMiss on non-miss class");
    }
}

AccessOutcome
MemorySystem::access(NodeId core, RefType type, Addr paddr, Tick now)
{
    ++transitionCount_;
#ifdef ISIM_CHECK_INVARIANTS
    verify::TransitionAudit audit(*this, core, type, paddr);
    const AccessOutcome out = accessImpl(core, type, paddr, now);
    audit.finish(out);
#else
    const AccessOutcome out = accessImpl(core, type, paddr, now);
#endif
    if (ISIM_OBS_ACTIVE(tracer_) && out.cls != MissClass::L1Hit) {
        const Addr line = paddr >> lineBits_;
        const Addr line_paddr = line << lineBits_;
        const auto home = static_cast<std::uint32_t>(homeOf(line));
        const auto cpu = static_cast<std::uint16_t>(core);
        const auto cls = static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(out.cls) |
            (out.upgrade ? obs::clsUpgrade : 0) |
            (out.racHit ? obs::clsRacHit : 0));
        tracer_->span(obs::EventKind::MissCompleted, now, out.stall,
                      cpu, cls, home, line_paddr);
        if (out.cls != MissClass::L2Hit) {
            tracer_->instant(obs::EventKind::MissIssued, now, cpu, cls,
                             home, line_paddr);
        }
        if (out.upgrade) {
            tracer_->span(obs::EventKind::DirUpgrade, now, out.stall,
                          cpu, cls, home, line_paddr);
        }
    }
    return out;
}

AccessOutcome
MemorySystem::accessImpl(NodeId core, RefType type, Addr paddr, Tick now)
{
    isim_assert(core < totalCores());
    const NodeId node = nodeOfCore(core);
    Node &nd = *nodes_[node];
    const unsigned local_core = core % config_.coresPerNode;
    const Addr line = paddr >> lineBits_;
    Cache &l1 = (type == RefType::IFetch) ? nd.l1i[local_core]
                                          : nd.l1d[local_core];

    if (type == RefType::Store)
        ++nd.stats.storeRefs;

    AccessOutcome out;

    // --- L1 ---
    if (CacheLine *l1line = l1.access(line)) {
        if (type != RefType::Store ||
            l1line->state == LineState::Modified) {
            out.cls = MissClass::L1Hit;
            return out;
        }
        CacheLine *l2line = nd.l2.probe(line);
        isim_assert(l2line != nullptr, "L1 line not in inclusive L2");
        if (lineOwned(l2line->state)) {
            // Silent E->M upgrade: the node already owns the line.
            l2line->state = LineState::Modified;
            l1line->state = LineState::Modified;
            invalidateSiblingL1s(nd, &l1, line);
            out.cls = MissClass::L1Hit;
            return out;
        }
        out.cls = upgradeTx(node, line);
        out.upgrade = true;
        l2line->state = LineState::Modified;
        l1line->state = LineState::Modified;
        invalidateSiblingL1s(nd, &l1, line);
        out.stall = latencyFor(out.cls, false, false, true);
        return out;
    }

    // --- L2 ---
    if (CacheLine *l2line = nd.l2.access(line))
        return l2PresentPath(node, nd, l1, *l2line, type, line);

    // --- L2 victim buffer ---
    if (hasVictimBuffer()) {
        LineState vstate;
        if (victimLookup(nd, line, vstate)) {
            ++nd.stats.victimHits;
            Victim displaced = nd.l2.fill(line, vstate);
            handleL2Victim(node, displaced);
            CacheLine *l2line = nd.l2.probe(line);
            isim_assert(l2line != nullptr);
            out = l2PresentPath(node, nd, l1, *l2line, type, line);
            out.victimHit = true;
            return out;
        }
    }

    // --- RAC (remote-home lines only) ---
    const NodeId home = homeOf(line);
    if (nd.rac && home != node) {
        if (CacheLine *r = nd.rac->lookup(line)) {
            out.racHit = true;
            if (type == RefType::Store && !lineOwned(r->state)) {
                // Data is local but ownership must still be acquired.
                out.cls = upgradeTx(node, line);
                out.upgrade = true;
                ++nd.stats.racUpgrades;
                invalidateSiblingL1s(nd, &l1, line);
                fillHierarchy(node, l1, line, LineState::Modified);
                out.stall = latencyFor(out.cls, false, false, true);
                return out;
            } else {
                const LineState marker = r->state;
                if (lineOwned(marker))
                    r->state = LineState::Shared; // marker moves to L2
                if (type == RefType::Store)
                    invalidateSiblingL1s(nd, &l1, line);
                LineState l2state;
                if (type == RefType::Store)
                    l2state = LineState::Modified;
                else if (marker == LineState::Modified)
                    l2state = LineState::Modified;
                else if (marker == LineState::Exclusive)
                    l2state = LineState::Exclusive;
                else
                    l2state = LineState::Shared;
                fillHierarchy(node, l1, line, l2state);
                out.cls = MissClass::Local;
            }
            countMiss(node, type, out.cls, line);
            out.stall = latencyFor(out.cls, out.racHit, false);
            return out;
        }
    }

    // --- Directory ---
    DirResult dr = (type == RefType::Store) ? dirWrite(node, line)
                                            : dirRead(node, line);
    out.cls = dr.cls;
    out.fromRemoteRac = dr.fromRemoteRac;
    const LineState l2state =
        type == RefType::Store ? LineState::Modified : dr.grant;
    if (type == RefType::Store)
        invalidateSiblingL1s(nd, &l1, line);
    fillHierarchy(node, l1, line, l2state);
    if (nd.rac && home != node)
        racInstall(node, line, LineState::Shared);
    countMiss(node, type, out.cls, line);
    out.stall = latencyFor(out.cls, false, out.fromRemoteRac);
    {
        // NoC traffic accounting runs on every directory-path miss,
        // tracer or not.
        NocLeg legs[3];
        const unsigned nlegs = nocLegsFor(node, home, dr.peer, legs);
        countNocLegs(legs, nlegs);
    }
    if (config_.mcOccupancy > 0) {
        // Every directory-path miss occupies the home's controller.
        const Cycles queued = mcQueueDelay(home, now);
        out.stall += queued;
        nd.stats.mcQueueCycles += queued;
    }
    if (ISIM_OBS_ACTIVE(tracer_)) {
        traceDirectoryMiss(core, node, home, dr.peer, type, out, line,
                           now);
    }
    if (config_.prefetchDegree > 0)
        issuePrefetches(node, line);
    return out;
}

unsigned
MemorySystem::nocLegsFor(NodeId node, NodeId home, NodeId peer,
                         NocLeg legs[3]) const
{
    // The Network model charges latency without per-message queues, so
    // the logical legs of a transaction are reconstructed after the
    // fact: request to home, optional probe to the former owner, data
    // back to the requester.
    constexpr unsigned ctrlBytes = 16; //!< header-only message
    constexpr unsigned dataBytes = 80; //!< header + 64B line
    unsigned nlegs = 0;
    const bool probed = peer != invalidNode && peer != node;
    if (home != node)
        legs[nlegs++] = {node, home, ctrlBytes};
    if (probed) {
        legs[nlegs++] = {home, peer, ctrlBytes};
        legs[nlegs++] = {peer, node, dataBytes};
    } else if (home != node) {
        legs[nlegs++] = {home, node, dataBytes};
    }
    return nlegs;
}

void
MemorySystem::countNocLegs(const NocLeg legs[3], unsigned nlegs)
{
    constexpr unsigned ctrlBytes = 16;
    for (unsigned i = 0; i < nlegs; ++i) {
        ++nocStats_.messages;
        if (legs[i].bytes > ctrlBytes)
            ++nocStats_.dataMessages;
        else
            ++nocStats_.ctrlMessages;
        nocStats_.bytes += legs[i].bytes;
        nocStats_.hops += nocTopo_.hops(legs[i].src, legs[i].dst);
    }
}

void
MemorySystem::traceDirectoryMiss(NodeId core, NodeId node, NodeId home,
                                 NodeId peer, RefType type,
                                 const AccessOutcome &out, Addr line_addr,
                                 Tick now)
{
    const Addr addr = line_addr << lineBits_;
    const auto cls = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(out.cls) |
        (out.fromRemoteRac ? obs::clsRacHit : 0));
    tracer_->span(type == RefType::Store ? obs::EventKind::DirWrite
                                         : obs::EventKind::DirRead,
                  now, out.stall, static_cast<std::uint16_t>(core), cls,
                  static_cast<std::uint32_t>(home), addr);

    // Hop events with timestamps spread across the charged stall.
    NocLeg legs[3];
    const unsigned nlegs = nocLegsFor(node, home, peer, legs);
    for (unsigned i = 0; i < nlegs; ++i) {
        const Tick depart = now + (out.stall * i) / nlegs;
        const Tick arrive = now + (out.stall * (i + 1)) / nlegs;
        tracer_->nocHop(obs::EventKind::NocEnqueue, depart, legs[i].src,
                        legs[i].dst, legs[i].bytes, addr);
        tracer_->nocHop(obs::EventKind::NocDequeue, arrive, legs[i].src,
                        legs[i].dst, legs[i].bytes, addr);
    }
}

Cycles
MemorySystem::mcQueueDelay(NodeId home, Tick now)
{
    if (config_.mcOccupancy == 0)
        return 0;
    Tick &busy = mcBusyUntil_[home];
    const Tick start = std::max(busy, now);
    const Cycles delay = start - now;
    busy = start + config_.mcOccupancy;
    return delay;
}

void
MemorySystem::issuePrefetches(NodeId node, Addr line_addr)
{
    Node &nd = *nodes_[node];
    for (unsigned d = 1; d <= config_.prefetchDegree; ++d) {
        const Addr line = line_addr + d;
        // Stay inside installed memory (the next line may cross the
        // last node's window).
        if ((line << lineBits_) >> nodeWindowBits >= config_.numNodes) {
            return;
        }
        if (nd.l2.probe(line) != nullptr)
            continue;
        if (hasVictimBuffer()) {
            // Leave parked victims alone; a demand access recovers
            // them more cheaply than a refetch.
            bool parked = false;
            for (const auto &entry : nd.victims)
                parked = parked || entry.first == line;
            if (parked)
                continue;
        }
        if (nd.rac && homeOf(line) != node &&
            nd.rac->cache().probe(line) != nullptr) {
            continue;
        }
        // Do not disturb a writer: prefetch only uncontended lines.
        const DirEntry *e = dir_.find(line);
        if (e != nullptr && e->state == LineState::Modified)
            continue;
        DirResult dr = dirRead(node, line);
        Victim victim = nd.l2.fill(line, dr.grant);
        handleL2Victim(node, victim);
        if (CacheLine *filled = nd.l2.probe(line))
            filled->prefetched = true;
        ++nd.stats.prefetchesIssued;
    }
}

AccessOutcome
MemorySystem::l2PresentPath(NodeId node, Node &nd, Cache &l1,
                            CacheLine &l2line, RefType type, Addr line)
{
    if (l2line.prefetched) {
        l2line.prefetched = false;
        ++nd.stats.prefetchHits;
    }
    AccessOutcome out;
    if (type == RefType::Store && !lineOwned(l2line.state)) {
        out.cls = upgradeTx(node, line);
        out.upgrade = true;
        l2line.state = LineState::Modified;
        invalidateSiblingL1s(nd, &l1, line);
        fillL1(nd, l1, line, LineState::Modified);
        out.stall = latencyFor(out.cls, false, false, true);
        return out;
    }
    if (type == RefType::Store) {
        l2line.state = LineState::Modified;
        invalidateSiblingL1s(nd, &l1, line);
    }
    LineState l1state;
    if (type == RefType::Store) {
        l1state = LineState::Modified;
    } else {
        // Load snoop: a sibling core may hold the line dirty in its
        // L1; it supplies the data and both end up Shared.
        downgradeSiblingL1s(nd, &l1, line);
        l1state =
            lineOwned(l2line.state) && config_.coresPerNode == 1
                ? LineState::Exclusive
                : LineState::Shared;
    }
    fillL1(nd, l1, line, l1state);
    out.cls = MissClass::L2Hit;
    out.stall = latencyFor(out.cls, false, false);
    return out;
}

MissClass
MemorySystem::upgradeTx(NodeId node, Addr line_addr)
{
    Node &nd = *nodes_[node];
    DirEntry *e = dir_.find(line_addr);
    isim_assert(e != nullptr && e->state == LineState::Shared &&
                    e->hasSharer(node),
                "upgrade from a node the directory does not list");

    unsigned invals = 0;
    for (NodeId s = 0; s < config_.numNodes; ++s) {
        if (s == node || !e->hasSharer(s))
            continue;
        if (mutation_ == ProtocolMutation::SkipUpgradeInval)
            continue; // injected bug: stale copies survive the upgrade
        invalidateNode(s, line_addr);
        ++invals;
    }
    nd.stats.invalidationsSent += invals;
    if (invals > 0)
        ++nd.stats.storesCausingInval;
    ++nd.stats.upgrades;

    e->state = LineState::Modified; // "owned" at the directory
    e->owner = node;
    e->sharers = 1u << node;

    return homeOf(line_addr) == node ? MissClass::Local
                                     : MissClass::RemoteClean;
}

MemorySystem::DirResult
MemorySystem::dirRead(NodeId node, Addr line_addr)
{
    DirResult r;
    const NodeId home = homeOf(line_addr);
    DirEntry &e = dir_.entry(line_addr);

    switch (e.state) {
      case LineState::Invalid: // uncached anywhere: grant exclusivity
        e.state = LineState::Modified;
        e.owner = node;
        e.sharers = 1u << node;
        r.cls = home == node ? MissClass::Local : MissClass::RemoteClean;
        r.grant = LineState::Exclusive;
        break;
      case LineState::Shared:
        if (mutation_ != ProtocolMutation::ForgetSharerBit)
            e.sharers |= 1u << node;
        r.cls = home == node ? MissClass::Local : MissClass::RemoteClean;
        r.grant = LineState::Shared;
        break;
      case LineState::Modified: { // owned by someone
        isim_assert(e.owner != node, "read miss while owning the line");
        r.peer = e.owner;
        const ProbeResult probe = downgradeNode(e.owner, line_addr);
        // If the owner's copy was dirty it is written back to home as
        // part of the downgrade; either way memory is valid now.
        e.state = LineState::Shared;
        e.sharers = (1u << e.owner) | (1u << node);
        e.owner = invalidNode;
        if (probe.wasDirty &&
            mutation_ != ProtocolMutation::MisclassifyDirty) {
            r.cls = MissClass::RemoteDirty;
            r.fromRemoteRac = probe.dirtyInRacOnly;
        } else {
            r.cls = home == node ? MissClass::Local
                                 : MissClass::RemoteClean;
        }
        r.grant = LineState::Shared;
        break;
      }
      default:
        isim_panic("invalid directory state");
    }
    return r;
}

MemorySystem::DirResult
MemorySystem::dirWrite(NodeId node, Addr line_addr)
{
    DirResult r;
    const NodeId home = homeOf(line_addr);
    DirEntry &e = dir_.entry(line_addr);
    NodeProtocolStats &s = nodes_[node]->stats;

    switch (e.state) {
      case LineState::Invalid:
        r.cls = home == node ? MissClass::Local : MissClass::RemoteClean;
        break;
      case LineState::Shared: {
        isim_assert(!e.hasSharer(node),
                    "store L2+RAC miss while directory lists us shared");
        unsigned invals = 0;
        for (NodeId sh = 0; sh < config_.numNodes; ++sh) {
            if (!e.hasSharer(sh))
                continue;
            invalidateNode(sh, line_addr);
            ++invals;
        }
        s.invalidationsSent += invals;
        if (invals > 0)
            ++s.storesCausingInval;
        r.cls = home == node ? MissClass::Local : MissClass::RemoteClean;
        break;
      }
      case LineState::Modified: { // owned by someone
        isim_assert(e.owner != node, "store miss while owning the line");
        r.peer = e.owner;
        const ProbeResult probe = invalidateNode(e.owner, line_addr);
        ++s.invalidationsSent;
        ++s.storesCausingInval;
        if (probe.wasDirty &&
            mutation_ != ProtocolMutation::MisclassifyDirty) {
            r.cls = MissClass::RemoteDirty;
            r.fromRemoteRac = probe.dirtyInRacOnly;
        } else {
            r.cls = home == node ? MissClass::Local
                                 : MissClass::RemoteClean;
        }
        break;
      }
      default:
        isim_panic("invalid directory state");
    }

    e.state = LineState::Modified;
    e.owner = node;
    e.sharers = 1u << node;
    r.grant = LineState::Modified;
    return r;
}

MemorySystem::ProbeResult
MemorySystem::invalidateNode(NodeId node, Addr line_addr)
{
    Node &nd = *nodes_[node];
    ProbeResult result;
    const LineState l2prior = nd.l2.invalidateLine(line_addr);
    if (l2prior != LineState::Invalid)
        invalidateAllL1s(nd, line_addr);
    if (l2prior == LineState::Modified)
        result.wasDirty = true;
    LineState vb_state;
    if (hasVictimBuffer() && victimLookup(nd, line_addr, vb_state)) {
        if (vb_state == LineState::Modified)
            result.wasDirty = true;
    }
    if (nd.rac) {
        if (CacheLine *r = nd.rac->cache().probe(line_addr)) {
            if (r->state == LineState::Modified) {
                result.wasDirty = true;
                if (l2prior != LineState::Modified) {
                    result.dirtyInRacOnly = true;
                    nd.rac->noteDirtyServiceToRemote();
                }
            }
            nd.rac->cache().invalidateLine(line_addr);
        }
    }
    return result;
}

MemorySystem::ProbeResult
MemorySystem::downgradeNode(NodeId node, Addr line_addr)
{
    Node &nd = *nodes_[node];
    ProbeResult result;
    bool holds = false;
    if (CacheLine *l2line = nd.l2.probe(line_addr)) {
        holds = true;
        if (l2line->state == LineState::Modified)
            result.wasDirty = true;
        if (lineOwned(l2line->state))
            l2line->state = LineState::Shared;
        for (Cache &c : nd.l1d) {
            if (CacheLine *l1line = c.probe(line_addr)) {
                if (lineOwned(l1line->state))
                    l1line->state = LineState::Shared;
            }
        }
        for (Cache &c : nd.l1i) {
            if (CacheLine *l1line = c.probe(line_addr)) {
                if (lineOwned(l1line->state))
                    l1line->state = LineState::Shared;
            }
        }
    }
    if (hasVictimBuffer()) {
        for (auto &entry : nd.victims) {
            if (entry.first != line_addr)
                continue;
            holds = true;
            if (entry.second == LineState::Modified)
                result.wasDirty = true;
            if (lineOwned(entry.second))
                entry.second = LineState::Shared;
        }
    }
    if (nd.rac) {
        if (CacheLine *r = nd.rac->cache().probe(line_addr)) {
            holds = true;
            if (r->state == LineState::Modified) {
                if (!result.wasDirty) {
                    result.dirtyInRacOnly = true;
                    nd.rac->noteDirtyServiceToRemote();
                }
                result.wasDirty = true;
            }
            if (lineOwned(r->state))
                r->state = LineState::Shared;
        }
    }
    isim_assert(holds, "downgrade at a node holding no copy");
    return result;
}

void
MemorySystem::invalidateSiblingL1s(Node &nd, const Cache *self,
                                   Addr line_addr)
{
    if (config_.coresPerNode == 1)
        return;
    bool any = false;
    for (auto *group : {&nd.l1i, &nd.l1d}) {
        for (Cache &c : *group) {
            if (&c == self)
                continue;
            any |= c.invalidateLine(line_addr) != LineState::Invalid;
        }
    }
    if (any)
        ++nd.stats.intraNodeInvals;
}

void
MemorySystem::downgradeSiblingL1s(Node &nd, const Cache *self,
                                  Addr line_addr)
{
    if (config_.coresPerNode == 1)
        return;
    for (Cache &c : nd.l1d) {
        if (&c == self)
            continue;
        if (CacheLine *l1line = c.probe(line_addr)) {
            if (lineOwned(l1line->state))
                l1line->state = LineState::Shared;
        }
    }
}

void
MemorySystem::invalidateAllL1s(Node &nd, Addr line_addr)
{
    for (Cache &c : nd.l1i)
        c.invalidateLine(line_addr);
    for (Cache &c : nd.l1d)
        c.invalidateLine(line_addr);
}

void
MemorySystem::fillL1(Node &nd, Cache &l1, Addr line_addr, LineState state)
{
    Victim v = l1.fill(line_addr, state);
    if (v.valid && v.state == LineState::Modified) {
        CacheLine *vl2 = nd.l2.probe(v.lineAddr);
        isim_assert(vl2 && vl2->state == LineState::Modified,
                    "dirty L1 victim without Modified L2 line");
    }
}

void
MemorySystem::fillHierarchy(NodeId node, Cache &l1, Addr line_addr,
                            LineState state)
{
    Node &nd = *nodes_[node];
    Victim l2victim = nd.l2.fill(line_addr, state);
    handleL2Victim(node, l2victim);
    LineState l1state;
    if (state == LineState::Modified)
        l1state = LineState::Modified;
    else if (state == LineState::Exclusive &&
             config_.coresPerNode == 1)
        l1state = LineState::Exclusive;
    else
        l1state = LineState::Shared;
    fillL1(nd, l1, line_addr, l1state);
}

bool
MemorySystem::victimLookup(Node &nd, Addr line_addr,
                           LineState &state_out)
{
    for (auto it = nd.victims.begin(); it != nd.victims.end(); ++it) {
        if (it->first == line_addr) {
            state_out = it->second;
            nd.victims.erase(it);
            return true;
        }
    }
    return false;
}

void
MemorySystem::handleL2Victim(NodeId node, const Victim &victim)
{
    if (!victim.valid)
        return;
    Node &nd = *nodes_[node];

    // Inclusion: drop any L1 copies of the displaced line.
    if (mutation_ != ProtocolMutation::SkipVictimBackInval)
        invalidateAllL1s(nd, victim.lineAddr);

    if (hasVictimBuffer()) {
        // Park the victim; the directory still sees the node holding
        // the line. The oldest entry spills out of the FIFO.
        nd.victims.emplace_back(victim.lineAddr, victim.state);
        if (nd.victims.size() <= config_.victimBufferEntries)
            return;
        const auto [spilled_line, spilled_state] = nd.victims.front();
        nd.victims.pop_front();
        releaseLine(node, spilled_line, spilled_state);
        return;
    }
    releaseLine(node, victim.lineAddr, victim.state);
}

void
MemorySystem::releaseLine(NodeId node, Addr vline, LineState state)
{
    if (mutation_ == ProtocolMutation::DropVictimRelease)
        return; // injected bug: the directory keeps a phantom sharer
    Node &nd = *nodes_[node];

    const NodeId home = homeOf(vline);

    if (lineOwned(state)) {
        if (nd.rac && home != node) {
            // Retain the owned line in the RAC instead of releasing it
            // to the remote home (this is what makes the RAC turn
            // 2-hop misses into 3-hop misses, Section 6).
            if (CacheLine *r = nd.rac->cache().probe(vline)) {
                r->state = state;
            } else {
                racInstall(node, vline, state);
            }
            if (state == LineState::Modified)
                nd.rac->noteDirtyInsertion();
            return;
        }
        DirEntry *e = dir_.find(vline);
        isim_assert(e != nullptr && e->state == LineState::Modified &&
                        e->owner == node,
                    "owned victim not owned per directory");
        if (state == LineState::Modified)
            ++nd.stats.writebacksToHome;
        else
            ++nd.stats.replacementHints;
        dir_.erase(vline); // memory at home is valid
        return;
    }

    // Clean (Shared) victim.
    if (nd.rac && home != node && nd.rac->cache().probe(vline) != nullptr) {
        // The RAC still holds a copy; the node remains a sharer.
        return;
    }
    DirEntry *e = dir_.find(vline);
    isim_assert(e != nullptr && e->hasSharer(node),
                "clean victim not listed as sharer");
    isim_assert(e->state == LineState::Shared,
                "Shared victim of a line the directory holds owned");
    e->sharers &= ~(1u << node);
    ++nd.stats.replacementHints;
    if (e->sharers == 0)
        dir_.erase(vline);
}

void
MemorySystem::racInstall(NodeId node, Addr line_addr, LineState state)
{
    Node &nd = *nodes_[node];
    isim_assert(nd.rac != nullptr);
    Victim v = nd.rac->install(line_addr, state);
    handleRacVictim(node, v);
}

void
MemorySystem::handleRacVictim(NodeId node, const Victim &victim)
{
    if (!victim.valid)
        return;
    Node &nd = *nodes_[node];
    const Addr vline = victim.lineAddr;
    CacheLine *l2line = nd.l2.probe(vline);

    if (lineOwned(victim.state)) {
        // An ownership marker lives in the RAC only while the L2 does
        // not hold the line.
        isim_assert(l2line == nullptr,
                    "RAC ownership marker while L2 holds the line");
        DirEntry *e = dir_.find(vline);
        isim_assert(e != nullptr && e->state == LineState::Modified &&
                        e->owner == node,
                    "RAC owned victim not owned per directory");
        if (victim.state == LineState::Modified) {
            ++nd.stats.writebacksToHome;
            nd.rac->noteWritebackToHome();
        } else {
            ++nd.stats.replacementHints;
        }
        dir_.erase(vline);
        return;
    }

    // Shared RAC victim: only notify the directory if the node now
    // holds no copy at all — the L2 *or* the victim buffer may still
    // hold it (possibly in an owned state: a dirty L2 victim can be
    // parked while the RAC kept an older Shared entry).
    if (l2line != nullptr)
        return;
    if (hasVictimBuffer()) {
        for (const auto &entry : nd.victims) {
            if (entry.first == vline)
                return;
        }
    }
    DirEntry *e = dir_.find(vline);
    isim_assert(e != nullptr && e->hasSharer(node),
                "RAC clean victim not listed as sharer");
    isim_assert(e->state == LineState::Shared,
                "RAC Shared victim of an owned line with no L2 copy");
    e->sharers &= ~(1u << node);
    ++nd.stats.replacementHints;
    if (e->sharers == 0)
        dir_.erase(vline);
}

void
MemorySystem::checkInvariants() const
{
    for (NodeId n = 0; n < config_.numNodes; ++n) {
        const Node &nd = *nodes_[n];

        nd.l2.array().forEachValid([&](Addr line, const CacheLine &cl) {
            const DirEntry *e = dir_.find(line);
            isim_assert(e != nullptr, "L2 line unknown to directory");
            isim_assert(e->hasSharer(n), "L2 line not listed as sharer");
            if (lineOwned(cl.state)) {
                isim_assert(e->state == LineState::Modified &&
                                e->owner == n,
                            "L2 owned line not owned per directory");
            } else {
                isim_assert(e->state == LineState::Shared,
                            "L2 Shared line but directory disagrees");
            }
        });

        for (const Cache &c : nd.l1i) {
            c.array().forEachValid([&](Addr line, const CacheLine &) {
                isim_assert(nd.l2.probe(line) != nullptr,
                            "L1I line violates inclusion");
            });
        }
        for (unsigned ci = 0; ci < nd.l1d.size(); ++ci) {
            nd.l1d[ci].array().forEachValid([&](Addr line,
                                                const CacheLine &cl) {
                const CacheLine *l2line = nd.l2.probe(line);
                isim_assert(l2line != nullptr,
                            "L1D line violates inclusion");
                if (cl.state == LineState::Modified) {
                    isim_assert(l2line->state == LineState::Modified,
                                "dirty L1D line but clean L2 line");
                    // Intra-chip single-writer: no sibling L1 may hold
                    // a copy of a line one core has dirty.
                    for (unsigned cj = 0; cj < nd.l1d.size(); ++cj) {
                        if (cj == ci)
                            continue;
                        isim_assert(nd.l1d[cj].probe(line) == nullptr,
                                    "two L1 copies of a dirty line");
                        isim_assert(nd.l1i[cj].probe(line) == nullptr,
                                    "L1I copy of a dirty line");
                    }
                }
            });
        }

        for (const auto &[vb_line, vb_state] : nd.victims) {
            isim_assert(nd.l2.probe(vb_line) == nullptr,
                        "victim-buffer line still resident in L2");
            const DirEntry *e = dir_.find(vb_line);
            isim_assert(e != nullptr,
                        "victim-buffer line unknown to directory");
            isim_assert(e->hasSharer(n),
                        "victim-buffer line not listed as sharer");
            if (lineOwned(vb_state)) {
                isim_assert(e->state == LineState::Modified &&
                                e->owner == n,
                            "owned victim-buffer line not owned per "
                            "directory");
            }
        }

        if (nd.rac) {
            nd.rac->cache().array().forEachValid(
                [&](Addr line, const CacheLine &cl) {
                    isim_assert(homeOf(line) != n,
                                "RAC holds a local-home line");
                    const DirEntry *e = dir_.find(line);
                    isim_assert(e != nullptr,
                                "RAC line unknown to directory");
                    isim_assert(e->hasSharer(n),
                                "RAC line not listed as sharer");
                    if (lineOwned(cl.state)) {
                        isim_assert(e->state == LineState::Modified &&
                                        e->owner == n,
                                    "RAC marker not owned per directory");
                        isim_assert(nd.l2.probe(line) == nullptr,
                                    "RAC marker while L2 holds line");
                    }
                });
        }
    }
}

} // namespace isim
