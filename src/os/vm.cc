/**
 * @file
 * Virtual memory implementation.
 */

#include "src/os/vm.hh"

#include <algorithm>
#include <vector>

#include "src/base/intmath.hh"
#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

namespace {
/** Sentinel for a replicated copy that has not been allocated yet. */
constexpr Addr unmappedFrame = ~Addr{0};
} // namespace

VirtualMemory::VirtualMemory(const VmConfig &config)
    : config_(config), pageShift_(floorLog2(config.pageBytes)),
      rng_(config.seed), usedFrames_(config.homeMap.numNodes),
      allocCount_(config.homeMap.numNodes, 0), tlb_(tlbSize)
{
    isim_assert(isPowerOf2(config_.pageBytes));
    pages_.reserve(1 << 16);
}

void
VirtualMemory::setPolicy(Addr vbase, std::uint64_t size, PlacePolicy policy,
                         std::string name)
{
    isim_assert(size > 0);
    const Addr vend = vbase + size;
    for (const Region &r : regions_) {
        isim_assert(vend <= r.vbase || vbase >= r.vend,
                    "overlapping VM regions");
    }
    Region region;
    region.vbase = vbase;
    region.vend = vend;
    region.policy = policy;
    region.name = std::move(name);
    regions_.push_back(std::move(region));
    std::sort(regions_.begin(), regions_.end(),
              [](const Region &a, const Region &b) {
                  return a.vbase < b.vbase;
              });
}

VirtualMemory::Region *
VirtualMemory::regionOf(Addr vaddr)
{
    // Binary search over sorted, non-overlapping regions.
    auto it = std::upper_bound(
        regions_.begin(), regions_.end(), vaddr,
        [](Addr a, const Region &r) { return a < r.vbase; });
    if (it != regions_.begin()) {
        --it;
        if (vaddr >= it->vbase && vaddr < it->vend)
            return &*it;
    }
    return nullptr;
}

std::vector<VirtualMemory::RegionProfile>
VirtualMemory::regionProfiles() const
{
    std::vector<RegionProfile> out;
    out.reserve(regions_.size());
    for (const Region &r : regions_) {
        RegionProfile p;
        p.name = r.name.empty() ? "(unnamed)" : r.name;
        p.vbase = r.vbase;
        p.size = r.vend - r.vbase;
        p.policy = r.policy;
        p.accesses = r.accesses;
        p.uniqueLines = r.lines.size();
        out.push_back(std::move(p));
    }
    return out;
}

Addr
VirtualMemory::allocFrame(NodeId node, std::uint64_t color_hint)
{
    const std::uint64_t frames_per_node =
        config_.homeMap.nodeWindow() >> pageShift_;
    auto &used = usedFrames_[node];
    isim_assert(used.size() < frames_per_node, "node memory exhausted");
    std::uint64_t frame;
    if (config_.pageColors > 1) {
        // Colour-constrained placement: random frame within the
        // page's colour class.
        const std::uint64_t colors = config_.pageColors;
        isim_assert(frames_per_node % colors == 0,
                    "pageColors must divide the frame count");
        const std::uint64_t color = color_hint % colors;
        const std::uint64_t per_color = frames_per_node / colors;
        do {
            frame = rng_.below(per_color) * colors + color;
        } while (!used.insert(frame).second);
    } else {
        // Pseudo-random placement (no colouring); retries are rare at
        // realistic occupancies.
        do {
            frame = rng_.below(frames_per_node);
        } while (!used.insert(frame).second);
    }
    ++allocCount_[node];
    return config_.homeMap.nodeBase(node) +
           (frame << pageShift_);
}

Addr
VirtualMemory::translate(Addr vaddr, NodeId core)
{
    const NodeId node = nodeOfCore(core);
    const std::uint64_t vpn = vaddr >> pageShift_;
    const Addr offset = vaddr & (config_.pageBytes - 1);

    // Colour hint: the page's position within its segment, phase-
    // shifted per segment so aligned segment bases do not stack.
    std::uint64_t color_hint = vpn;
    if (config_.pageColors > 1) {
        // Offset per segment *and* per colour-window-sized chunk of
        // the segment: per-process areas inside one segment sit at
        // power-of-two strides (stacks, per-CPU data), and without
        // the chunk offset they would all stack onto the same colours
        // — the classic aligned-stack pathology.
        std::uint64_t local = vpn;
        std::uint64_t seg_salt = mix64(vaddr >> 40);
        if (const Region *r = regionOf(vaddr)) {
            local = vpn - (r->vbase >> pageShift_);
            seg_salt = mix64(r->vbase);
        }
        const std::uint64_t chunk = local / config_.pageColors;
        color_hint = local + seg_salt + mix64(chunk + seg_salt);
    }

    Region *prof_region = nullptr;
    if (profiling_) {
        if ((prof_region = regionOf(vaddr)) != nullptr) {
            ++prof_region->accesses;
            prof_region->lines.insert(vaddr >> 6);
        }
    }

    TlbEntry &te = tlb_[(vpn ^ (node * 0x9e37ULL)) % tlbSize];
    if (te.vpn == vpn && te.node == node)
        return te.frame + offset;

    Addr frame;
    PlacePolicy policy = PlacePolicy::Interleave;
    if (const Region *r = regionOf(vaddr))
        policy = r->policy;
    if (policy == PlacePolicy::Replicate) {
        auto &copies = replicated_[vpn];
        if (copies.empty())
            copies.assign(config_.homeMap.numNodes, unmappedFrame);
        if (copies[node] == unmappedFrame)
            copies[node] = allocFrame(node, color_hint);
        frame = copies[node];
    } else {
        auto it = pages_.find(vpn);
        if (it != pages_.end()) {
            frame = it->second;
        } else {
            NodeId target = node;
            if (policy == PlacePolicy::Interleave) {
                // Fixed striping by virtual page number: deterministic
                // and independent of first-touch order.
                target = static_cast<NodeId>(
                    vpn % config_.homeMap.numNodes);
            }
            frame = allocFrame(target, color_hint);
            pages_.emplace(vpn, frame);
        }
    }

    if (profiling_ && prof_region != nullptr) {
        frameRegion_.emplace(
            frame >> pageShift_,
            static_cast<std::uint16_t>(prof_region - regions_.data()));
    }

    te.vpn = vpn;
    te.node = node;
    te.frame = frame;
    return frame + offset;
}

int
VirtualMemory::regionIndexOfPaddr(Addr paddr) const
{
    auto it = frameRegion_.find(paddr >> pageShift_);
    return it == frameRegion_.end() ? -1 : static_cast<int>(it->second);
}

std::uint64_t
VirtualMemory::framesAllocated(NodeId node) const
{
    return allocCount_[node];
}

namespace {

/** Sorted keys of an unordered map (canonical serialization order). */
template <typename Map>
std::vector<std::uint64_t>
sortedKeys(const Map &map)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(map.size());
    for (const auto &kv : map)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

} // namespace

void
VirtualMemory::saveState(ckpt::Serializer &s) const
{
    rng_.saveState(s);
    s.u64(allocCount_.size());
    for (std::uint64_t n : allocCount_)
        s.u64(n);
    s.u64(pages_.size());
    for (std::uint64_t vpn : sortedKeys(pages_)) {
        s.u64(vpn);
        s.u64(pages_.at(vpn));
    }
    s.u64(replicated_.size());
    for (std::uint64_t vpn : sortedKeys(replicated_)) {
        s.u64(vpn);
        const std::vector<Addr> &copies = replicated_.at(vpn);
        s.u64(copies.size());
        for (Addr frame : copies)
            s.u64(frame);
    }
    s.u64(usedFrames_.size());
    for (const auto &frames : usedFrames_) {
        std::vector<std::uint64_t> sorted(frames.begin(), frames.end());
        std::sort(sorted.begin(), sorted.end());
        s.u64(sorted.size());
        for (std::uint64_t pfn : sorted)
            s.u64(pfn);
    }
}

std::size_t
VirtualMemory::savedRecordBytes() const
{
    // (vpn, frame); (vpn, copy count, one frame per node); one pfn.
    const std::size_t copies = config_.homeMap.numNodes;
    std::size_t frames = 0;
    for (const auto &used : usedFrames_)
        frames += used.size();
    return pages_.size() * 16 + replicated_.size() * (16 + 8 * copies) +
           frames * 8;
}

void
VirtualMemory::restoreState(ckpt::Deserializer &d)
{
    rng_.restoreState(d);
    if (d.u64() != allocCount_.size())
        isim_fatal("checkpoint VM node count mismatch");
    for (std::uint64_t &n : allocCount_)
        n = d.u64();
    pages_.clear();
    const std::uint64_t npages = d.u64();
    for (std::uint64_t i = 0; i < npages; ++i) {
        const std::uint64_t vpn = d.u64();
        pages_[vpn] = d.u64();
    }
    replicated_.clear();
    const std::uint64_t nrepl = d.u64();
    const unsigned nodes = config_.homeMap.numNodes;
    for (std::uint64_t i = 0; i < nrepl; ++i) {
        const std::uint64_t vpn = d.u64();
        // Every replicated page has one copy slot per node.
        const std::uint64_t ncopies = d.u64();
        if (ncopies != nodes)
            isim_fatal("checkpoint corrupt: VMEM replicated page %#llx "
                       "has %llu copies, machine has %u nodes",
                       static_cast<unsigned long long>(vpn),
                       static_cast<unsigned long long>(ncopies), nodes);
        std::vector<Addr> copies(ncopies);
        for (Addr &frame : copies)
            frame = d.u64();
        replicated_[vpn] = std::move(copies);
    }
    if (d.u64() != usedFrames_.size())
        isim_fatal("checkpoint VM frame-table count mismatch");
    for (auto &frames : usedFrames_) {
        frames.clear();
        const std::uint64_t nframes = d.u64();
        for (std::uint64_t i = 0; i < nframes; ++i)
            frames.insert(d.u64());
    }
    for (TlbEntry &e : tlb_)
        e = TlbEntry{};
}

} // namespace isim
