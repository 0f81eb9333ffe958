/**
 * @file
 * Model checker implementation.
 *
 * States are rebuilt by replaying their event path from the initial
 * state (the MemorySystem is deliberately not copyable), which is
 * affordable because configurations are tiny and paths are shortest
 * paths (breadth-first order).
 */

#include "src/verify/mcheck.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <unordered_set>
#include <utility>

#include "src/base/logging.hh"
#include "src/verify/invariants.hh"

namespace isim::verify {

namespace {

/** Shadow data: a version number per line and per cached copy. */
struct ShadowLine
{
    std::uint64_t latest = 0; //!< version of the most recent store
    std::uint64_t mem = 0;    //!< version home memory holds
    std::map<NodeId, std::uint64_t> cached; //!< per holding node
};

/**
 * The shadow memory. Versions move the way the protocol *claims* data
 * moves (per AccessOutcome), so a wrong claim — e.g. "home memory
 * supplied this" while a third node held the line dirty — surfaces as
 * a stale version reaching a reader.
 */
class Shadow
{
  public:
    /** Account for one access; `pre_owner` is the directory owner
     *  before the access (invalidNode if none). */
    void step(const MemorySystem &sys, const McheckEvent &ev,
              const AccessOutcome &out, NodeId pre_owner, bool check);

    /** Reconcile holders with the post-transition system state
     *  (evictions, invalidations, spills across all lines). */
    void sync(const MemorySystem &sys, const std::vector<Addr> &tracked,
              bool check);

    /** Freshness pattern for the state fingerprint. */
    void appendFingerprint(std::string &key, Addr line,
                           unsigned num_nodes) const;

  private:
    std::uint64_t counter_ = 0;
    std::map<Addr, ShadowLine> lines_;
};

void
Shadow::step(const MemorySystem &sys, const McheckEvent &ev,
             const AccessOutcome &out, NodeId pre_owner, bool check)
{
    const NodeId node = sys.nodeOfCore(ev.core);
    ShadowLine &sl = lines_[ev.line];
    const auto it = sl.cached.find(node);
    const bool had_copy = it != sl.cached.end();

    std::uint64_t observed;
    if (had_copy) {
        observed = it->second;
    } else if ((out.victimHit || out.racHit) && check) {
        isim_panic("shadow memory: %s hit on line %#llx the node holds "
                   "no data for",
                   out.victimHit ? "victim-buffer" : "RAC",
                   static_cast<unsigned long long>(ev.line));
    } else if (out.cls == MissClass::RemoteDirty) {
        const auto oit = pre_owner == invalidNode
                             ? sl.cached.end()
                             : sl.cached.find(pre_owner);
        if (oit == sl.cached.end()) {
            if (check) {
                isim_panic("shadow memory: 3-hop claimed on line %#llx "
                           "without a dirty remote copy",
                           static_cast<unsigned long long>(ev.line));
            }
            observed = sl.mem;
        } else {
            observed = oit->second;
            // A read downgrade writes the dirty data back to home.
            if (ev.type != RefType::Store)
                sl.mem = sl.latest;
        }
    } else {
        observed = sl.mem; // the protocol claims home memory supplied
    }

    if (check && observed != sl.latest) {
        isim_panic("shadow memory: core %u %s line %#llx observed "
                   "version %llu but the latest store is %llu — stale "
                   "data reached a %s",
                   ev.core,
                   ev.type == RefType::Store ? "store" : "read",
                   static_cast<unsigned long long>(ev.line),
                   static_cast<unsigned long long>(observed),
                   static_cast<unsigned long long>(sl.latest),
                   ev.type == RefType::Store ? "writer" : "reader");
    }

    if (ev.type == RefType::Store) {
        sl.latest = ++counter_;
        sl.cached[node] = sl.latest;
    } else {
        sl.cached[node] = observed;
    }
}

void
Shadow::sync(const MemorySystem &sys, const std::vector<Addr> &tracked,
             bool check)
{
    const unsigned num_nodes = sys.config().numNodes;
    for (Addr line : tracked) {
        const auto lit = lines_.find(line);
        if (lit == lines_.end())
            continue;
        ShadowLine &sl = lit->second;
        for (NodeId m = 0; m < num_nodes; ++m) {
            const bool holds = holdingOf(sys, m, line).holdsAny();
            const auto cit = sl.cached.find(m);
            const bool had = cit != sl.cached.end();
            if (had && !holds) {
                // The copy left the node. If it was the only fresh
                // copy, the protocol must have written it back home.
                const std::uint64_t gone = cit->second;
                sl.cached.erase(cit);
                if (gone == sl.latest && sl.mem != sl.latest) {
                    bool fresh_elsewhere = false;
                    for (const auto &[holder, ver] : sl.cached)
                        fresh_elsewhere |= ver == sl.latest;
                    if (!fresh_elsewhere)
                        sl.mem = gone; // write-back of the dirty line
                }
            } else if (!had && holds && check) {
                isim_panic("shadow memory: node %u gained line %#llx "
                           "outside any access",
                           m, static_cast<unsigned long long>(line));
            }
        }
    }
}

void
Shadow::appendFingerprint(std::string &key, Addr line,
                          unsigned num_nodes) const
{
    const auto lit = lines_.find(line);
    if (lit == lines_.end()) {
        key.append(num_nodes + 1, '\x00');
        return;
    }
    const ShadowLine &sl = lit->second;
    key.push_back(sl.mem == sl.latest ? '\x02' : '\x01');
    for (NodeId m = 0; m < num_nodes; ++m) {
        const auto cit = sl.cached.find(m);
        if (cit == sl.cached.end())
            key.push_back('\x00');
        else
            key.push_back(cit->second == sl.latest ? '\x02' : '\x01');
    }
}

/** Canonical per-set recency order of a cache's resident lines. */
void
appendRecency(std::string &key, const Cache &cache,
              const std::vector<Addr> &tracked)
{
    struct Entry
    {
        std::uint64_t set;
        std::uint64_t lastUse;
        std::uint8_t idx;
    };
    std::vector<Entry> entries;
    cache.array().forEachValid([&](Addr line, const CacheLine &cl) {
        const auto it = std::find(tracked.begin(), tracked.end(), line);
        // Untracked lines cannot exist: events only touch tracked ones.
        isim_assert(it != tracked.end(), "untracked line is resident");
        entries.push_back({cache.geometry().setIndex(line), cl.lastUse,
                           static_cast<std::uint8_t>(
                               it - tracked.begin())});
    });
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.set != b.set ? a.set < b.set
                                        : a.lastUse < b.lastUse;
              });
    key.push_back('\xFB');
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i > 0 && entries[i].set != entries[i - 1].set)
            key.push_back('\xFC'); // set boundary
        key.push_back(static_cast<char>(entries[i].idx));
    }
}

std::string
fingerprint(const MemorySystem &sys, const Shadow &shadow,
            const std::vector<Addr> &tracked)
{
    const unsigned num_nodes = sys.config().numNodes;
    const unsigned cores = sys.config().coresPerNode;
    std::string key;
    key.reserve(tracked.size() * (8 + num_nodes * (3 + 2 * cores)));

    auto idxOf = [&](Addr line) {
        const auto it = std::find(tracked.begin(), tracked.end(), line);
        isim_assert(it != tracked.end(), "untracked line in a structure");
        return static_cast<char>(it - tracked.begin());
    };

    for (Addr line : tracked) {
        if (const DirEntry *e = sys.directory().find(line)) {
            key.push_back(static_cast<char>(e->state));
            for (unsigned b = 0; b < 4; ++b)
                key.push_back(
                    static_cast<char>((e->sharers >> (8 * b)) & 0xFF));
            key.push_back(e->state == LineState::Modified
                              ? static_cast<char>(e->owner)
                              : '\x7F');
        } else {
            key.append(6, '\x7E'); // uncached
        }
        for (NodeId n = 0; n < num_nodes; ++n) {
            const NodeHolding h = holdingOf(sys, n, line);
            key.push_back(static_cast<char>(h.l2));
            key.push_back(sys.hasRac() ? static_cast<char>(h.rac)
                                       : '\x7D');
            for (unsigned c = 0; c < cores; ++c) {
                key.push_back(static_cast<char>(h.l1i[c]));
                key.push_back(static_cast<char>(h.l1d[c]));
            }
        }
        shadow.appendFingerprint(key, line, num_nodes);
    }

    // Victim FIFOs: content *and* order decide future spills.
    for (NodeId n = 0; n < num_nodes; ++n) {
        const auto &vb = sys.victimBuffer(n);
        key.push_back(static_cast<char>(vb.size()));
        for (const auto &[vline, vstate] : vb) {
            key.push_back(idxOf(vline));
            key.push_back(static_cast<char>(vstate));
        }
    }

    // Replacement order decides future victims.
    for (NodeId n = 0; n < num_nodes; ++n) {
        appendRecency(key, sys.l2(n), tracked);
        if (sys.hasRac())
            appendRecency(key, sys.rac(n).cache(), tracked);
        for (unsigned c = 0; c < cores; ++c) {
            appendRecency(key, sys.l1i(n * cores + c), tracked);
            appendRecency(key, sys.l1d(n * cores + c), tracked);
        }
    }
    return key;
}

/** Apply one event; with `check`, run the oracle and the full audit. */
void
applyEvent(MemorySystem &sys, Shadow &shadow,
           const std::vector<Addr> &tracked, const McheckEvent &ev,
           bool check)
{
    NodeId pre_owner = invalidNode;
    if (const DirEntry *e = sys.directory().find(ev.line)) {
        if (e->state == LineState::Modified)
            pre_owner = e->owner;
    }
    ExpectedOutcome want;
    if (check)
        want = classifyOracle(sys, ev.core, ev.type, ev.line);
    const AccessOutcome out =
        sys.access(ev.core, ev.type, ev.line << sys.lineBits(), 0);
    if (check) {
        checkOutcome(want, out, ev.core, ev.type, ev.line);
        auditFull(sys);
    }
    shadow.step(sys, ev, out, pre_owner, check);
    shadow.sync(sys, tracked, check);
}

} // namespace

MemSysConfig
McheckConfig::memConfig() const
{
    MemSysConfig m;
    m.numNodes = numNodes;
    m.coresPerNode = coresPerNode;
    m.lineBytes = 64;
    // Tiny hierarchies: a 2-way single-set L1 over a direct-mapped
    // 4-set L2, so conflict evictions happen within a few events.
    m.l1Size = 128;
    m.l1Assoc = 2;
    m.l2 = CacheGeometry{256, 1, 64};
    m.victimBufferEntries = victimBufferEntries;
    m.racEnabled = racEnabled;
    m.rac = CacheGeometry{128, 1, 64};
    return m;
}

std::vector<Addr>
McheckConfig::trackedLines() const
{
    // Data lines alternate homes and share L2 set 0 (the home bits sit
    // far above the set-index bits; the in-window offsets are
    // multiples of 4 lines). The code line sits in set 1 at home 0.
    std::vector<Addr> lines;
    const unsigned home_shift = nodeWindowBits - 6; // minus line bits
    for (unsigned i = 0; i < dataLines; ++i) {
        lines.push_back(
            (static_cast<Addr>(i % numNodes) << home_shift) |
            static_cast<Addr>((i / numNodes) * 4));
    }
    if (codeLine)
        lines.push_back(1);
    return lines;
}

std::vector<McheckEvent>
McheckConfig::events() const
{
    std::vector<McheckEvent> evs;
    const std::vector<Addr> lines = trackedLines();
    const unsigned cores = numNodes * coresPerNode;
    for (NodeId core = 0; core < cores; ++core) {
        for (unsigned i = 0; i < dataLines; ++i) {
            evs.push_back({core, RefType::Load, lines[i]});
            evs.push_back({core, RefType::Store, lines[i]});
        }
        if (codeLine)
            evs.push_back({core, RefType::IFetch, lines.back()});
    }
    return evs;
}

std::string
McheckConfig::name() const
{
    std::string s = std::to_string(numNodes) + "n" +
                    std::to_string(coresPerNode) + "c-" +
                    std::to_string(dataLines) + "d";
    if (codeLine)
        s += "+code";
    if (racEnabled)
        s += "-rac";
    if (victimBufferEntries > 0)
        s += "-vb" + std::to_string(victimBufferEntries);
    if (mutation != ProtocolMutation::None) {
        s += "-mut:";
        s += protocolMutationName(mutation);
    }
    return s;
}

std::string
McheckResult::traceString(const McheckConfig &cfg) const
{
    const std::vector<Addr> lines = cfg.trackedLines();
    std::string s;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const McheckEvent &ev = trace[i];
        const auto it = std::find(lines.begin(), lines.end(), ev.line);
        const std::size_t idx = it - lines.begin();
        s += "  " + std::to_string(i + 1) + ". core" +
             std::to_string(ev.core) + " ";
        s += ev.type == RefType::IFetch  ? "ifetch"
             : ev.type == RefType::Load  ? "load  "
                                         : "store ";
        s += ev.type == RefType::IFetch ? " CODE"
                                        : " D" + std::to_string(idx);
        s += " (line 0x";
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%llx",
                      static_cast<unsigned long long>(ev.line));
        s += buf;
        s += ", home " +
             std::to_string(static_cast<unsigned>(ev.line >> 25));
        s += ")\n";
    }
    return s;
}

McheckResult
modelCheck(const McheckConfig &cfg)
{
    McheckResult res;
    const std::vector<Addr> tracked = cfg.trackedLines();
    const std::vector<McheckEvent> evs = cfg.events();
    ScopedPanicThrow throw_scope; // violations throw, never abort

    auto makeSys = [&] {
        auto sys = std::make_unique<MemorySystem>(cfg.memConfig());
        sys->setMutationForTest(cfg.mutation);
        return sys;
    };

    struct StateRec
    {
        std::uint32_t parent;
        std::uint16_t event; //!< 0xFFFF marks the initial state
    };
    std::vector<StateRec> states;
    std::unordered_set<std::string> seen;
    std::deque<std::uint32_t> frontier;

    {
        auto sys = makeSys();
        Shadow shadow;
        seen.insert(fingerprint(*sys, shadow, tracked));
        states.push_back({0, 0xFFFF});
        frontier.push_back(0);
    }

    auto pathOf = [&](std::uint32_t s) {
        std::vector<std::uint16_t> path;
        while (states[s].event != 0xFFFF) {
            path.push_back(states[s].event);
            s = states[s].parent;
        }
        std::reverse(path.begin(), path.end());
        return path;
    };

    while (!frontier.empty()) {
        const std::uint32_t cur = frontier.front();
        frontier.pop_front();
        const std::vector<std::uint16_t> path = pathOf(cur);

        for (std::uint16_t ei = 0;
             ei < static_cast<std::uint16_t>(evs.size()); ++ei) {
            auto sys = makeSys();
            Shadow shadow;
            for (const std::uint16_t pe : path)
                applyEvent(*sys, shadow, tracked, evs[pe], false);
            try {
                applyEvent(*sys, shadow, tracked, evs[ei], true);
            } catch (const PanicError &p) {
                ++res.transitions;
                res.states = states.size();
                res.violation = p.what();
                for (const std::uint16_t pe : path)
                    res.trace.push_back(evs[pe]);
                res.trace.push_back(evs[ei]);
                return res;
            }
            ++res.transitions;
            std::string fp = fingerprint(*sys, shadow, tracked);
            if (seen.insert(std::move(fp)).second) {
                if (states.size() >=
                    static_cast<std::size_t>(cfg.maxStates)) {
                    res.ok = true;
                    res.states = states.size();
                    return res; // capped: exhausted stays false
                }
                states.push_back({cur, ei});
                frontier.push_back(
                    static_cast<std::uint32_t>(states.size() - 1));
            }
        }
    }

    res.ok = true;
    res.exhausted = true;
    res.states = states.size();
    return res;
}

} // namespace isim::verify
