/**
 * @file
 * Buffer-cache metadata model: the hash table, buffer headers and LRU
 * lists that the servers walk on every block access. These structures
 * are the "directory information for the block buffer" half of the
 * paper's SGA metadata area. Headers of hot blocks (branch rows, index
 * root) are pinned/unpinned — i.e. *written* — by every transaction
 * from every node, a major source of true sharing.
 */

#ifndef ISIM_OLTP_BUFFER_CACHE_HH
#define ISIM_OLTP_BUFFER_CACHE_HH

#include <cstdint>
#include <set>
#include <vector>

#include "src/base/random.hh"
#include "src/ckpt/fwd.hh"
#include "src/oltp/sga.hh"
#include "src/os/vm.hh"
#include "src/trace/record.hh"

namespace isim {

/** Buffer-cache metadata traffic generator plus dirty-block tracking. */
class BufferCache
{
  public:
    explicit BufferCache(const Sga &sga) : sga_(sga) {}

    /**
     * Hash lookup and header pin for a block: bucket read, dependent
     * header read, dependent pin store.
     */
    void emitLookupAndPin(std::uint64_t block, VirtualMemory &vm,
                          NodeId node, RefQueue &out);

    /** Unpin: one header store. */
    void emitUnpin(std::uint64_t block, VirtualMemory &vm, NodeId node,
                   RefQueue &out);

    /** Touch the block's LRU list head (load + store, shared). */
    void emitLruTouch(std::uint64_t block, VirtualMemory &vm, NodeId node,
                      RefQueue &out);

    /** Mark a block dirty (to be flushed by the database writer). */
    void markDirty(std::uint64_t block) { dirty_.insert(block); }

    std::uint64_t dirtyCount() const { return dirty_.size(); }

    /**
     * Take up to `max_blocks` dirty blocks (they become clean); the
     * database-writer daemon flushes them.
     */
    std::vector<std::uint64_t> takeDirty(std::size_t max_blocks);

    std::uint64_t lookups() const { return lookups_; }

    /** Zero the lookup counter (warm-up boundary); dirty set is kept. */
    void resetCounters() { lookups_ = 0; }

    /** Checkpoint the dirty set and lookup counter. */
    void saveState(ckpt::Serializer &s) const;
    void restoreState(ckpt::Deserializer &d);

  private:
    const Sga &sga_;
    /**
     * Ordered so takeDirty() hands blocks to the database writer in a
     * canonical (block-number) order — an unordered set would make the
     * writer's flush pattern depend on hash iteration order, breaking
     * checkpoint bit-exactness.
     */
    std::set<std::uint64_t> dirty_;
    std::uint64_t lookups_ = 0;
};

} // namespace isim

#endif // ISIM_OLTP_BUFFER_CACHE_HH
