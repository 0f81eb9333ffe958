/**
 * @file
 * Buffer-cache metadata traffic implementation.
 */

#include "src/oltp/buffer_cache.hh"

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"

namespace isim {

void
BufferCache::emitLookupAndPin(std::uint64_t block, VirtualMemory &vm,
                              NodeId node, RefQueue &out)
{
    ++lookups_;
    const std::uint64_t bucket = sga_.bucketOf(block);
    const Addr bucket_pa = vm.translate(sga_.hashBucketAddr(bucket), node);
    const Addr header_pa = vm.translate(sga_.headerAddr(block), node);
    out.push_back(loadRef(bucket_pa));
    out.push_back(loadRef(header_pa, /*dep_dist=*/1)); // chain walk
    out.push_back(storeRef(header_pa, /*dep_dist=*/1)); // pin count
}

void
BufferCache::emitUnpin(std::uint64_t block, VirtualMemory &vm, NodeId node,
                       RefQueue &out)
{
    const Addr header_pa = vm.translate(sga_.headerAddr(block), node);
    out.push_back(storeRef(header_pa));
}

void
BufferCache::emitLruTouch(std::uint64_t block, VirtualMemory &vm,
                          NodeId node, RefQueue &out)
{
    const unsigned list =
        static_cast<unsigned>(block % sga_.numLruLists());
    const Addr lru_pa = vm.translate(sga_.lruListAddr(list), node);
    out.push_back(loadRef(lru_pa));
    out.push_back(storeRef(lru_pa, /*dep_dist=*/1));
}

std::vector<std::uint64_t>
BufferCache::takeDirty(std::size_t max_blocks)
{
    std::vector<std::uint64_t> taken;
    taken.reserve(std::min(max_blocks, dirty_.size()));
    for (auto it = dirty_.begin();
         it != dirty_.end() && taken.size() < max_blocks;) {
        taken.push_back(*it);
        it = dirty_.erase(it);
    }
    return taken;
}

void
BufferCache::saveState(ckpt::Serializer &s) const
{
    s.u64(lookups_);
    s.u64(dirty_.size());
    for (std::uint64_t block : dirty_)
        s.u64(block);
}

void
BufferCache::restoreState(ckpt::Deserializer &d)
{
    lookups_ = d.u64();
    dirty_.clear();
    const std::uint64_t count = d.u64();
    for (std::uint64_t i = 0; i < count; ++i)
        dirty_.insert(d.u64());
}

} // namespace isim
