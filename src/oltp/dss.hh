/**
 * @file
 * DSS (decision-support) query streams: the contrast workload. The
 * paper's introduction singles out OLTP *because* "applications such
 * as decision support (DSS) and Web index search have been shown to
 * be relatively insensitive to memory system performance" — this
 * process type lets the repository demonstrate that contrast on the
 * same machine models (`isim-fig run ext-dss`).
 *
 * A DSS stream runs sequential-scan aggregation queries: tight
 * operator loops (tiny instruction footprint), streaming reads over
 * large block ranges (no reuse, so cache size and associativity are
 * nearly irrelevant), private aggregation state, and almost no
 * write sharing or kernel time.
 */

#ifndef ISIM_OLTP_DSS_HH
#define ISIM_OLTP_DSS_HH

#include "src/oltp/workload.hh"
#include "src/os/process.hh"

namespace isim {

/** One decision-support query stream. */
class DssScanProcess : public Process
{
  public:
    DssScanProcess(OltpEngine &engine, Pid pid, NodeId cpu,
                   std::uint64_t seed);

    ProcessStep step(Tick now) override;

    void saveState(ckpt::Serializer &s) const override;
    void restoreState(ckpt::Deserializer &d) override;

  private:
    enum class Phase : std::uint8_t { Plan, Scan, Finalize };

    void emitPlan();
    /** Emit one block's worth of scanning into the pending queue. */
    void emitScanChunk();
    void emitFinalize();

    OltpEngine &engine_;
    Rng rng_;
    Phase phase_ = Phase::Plan;
    std::uint64_t queries_ = 0;
    Tick queryStart_ = 0;
    bool done_ = false;

    std::uint64_t scanBlock_ = 0;   //!< next block of this query
    std::uint64_t blocksLeft_ = 0;  //!< blocks remaining in the query
    // ckpt: transient(privateBase_): VM region base, identical by contract
    Addr privateBase_;
};

} // namespace isim

#endif // ISIM_OLTP_DSS_HH
