/**
 * @file
 * The dedicated server process: executes TPC-B transactions against
 * the engine, emitting every memory reference of the transaction path
 * — client pipe syscalls, SQL parse/execute code paths with
 * interleaved data traffic, buffer-cache walks, row reads/updates,
 * redo generation, and the commit wait on the log writer.
 */

#ifndef ISIM_OLTP_SERVER_HH
#define ISIM_OLTP_SERVER_HH

#include "src/oltp/code_model.hh"
#include "src/oltp/workload.hh"
#include "src/os/process.hh"

namespace isim {

/** One Oracle-style dedicated server. */
class ServerProcess : public Process, private LineDataEmitter
{
  public:
    ServerProcess(OltpEngine &engine, Pid pid, NodeId cpu,
                  std::uint64_t seed);

    ProcessStep step(Tick now) override;

    void saveState(ckpt::Serializer &s) const override;
    void restoreState(ckpt::Deserializer &d) override;

  private:
    enum class Phase : std::uint8_t {
        ReadRequest,  //!< pipe read from the client
        Parse,        //!< SQL parse / plan
        Execute,      //!< index walks, row reads and updates
        Redo,         //!< redo generation into the log buffer
        Commit,       //!< submit to the log writer and wait
        Respond,      //!< pipe write back to the client
        Think,        //!< client think time
    };

    void emitReadRequest();
    void emitParse();
    void emitExecute();
    void emitRedo();
    void emitRespond();

    /** Invoke `count` DB functions from group [group_base, group_len). */
    void invokeGroup(unsigned group_base, unsigned group_len,
                     unsigned count);

    /**
     * Full row access: hash latch, buffer-cache lookup/pin, block line
     * reads, optional row update, LRU touch, unpin, latch release.
     */
    void emitRowAccess(const RowLocation &loc, bool write);
    /** Read-only index block walk (no row). */
    void emitIndexBlock(std::uint64_t block);

    // LineDataEmitter: interleaved per-code-line data traffic.
    void emitLineData(Rng &rng, RefQueue &out) override;

    OltpEngine &engine_;
    Rng rng_;
    Phase phase_ = Phase::ReadRequest;
    std::uint64_t txns_ = 0;
    Tick txnStart_ = 0;
    bool done_ = false;

    // Current transaction operands.
    std::uint64_t account_ = 0;
    std::uint64_t teller_ = 0;
    std::uint64_t branch_ = 0;
    std::int64_t delta_ = 0;

    std::uint64_t lastBlockTouched_ = 0;
    std::uint32_t lastRowLine_ = 0; //!< line offset of the current row
    std::uint64_t warmCursor_ = 0;  //!< cyclic sweep over the warm band
    // ckpt: transient(privateBase_): VM region base, identical by contract
    Addr privateBase_;
};

} // namespace isim

#endif // ISIM_OLTP_SERVER_HH
