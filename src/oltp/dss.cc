/**
 * @file
 * DSS query-stream implementation.
 */

#include "src/oltp/dss.hh"

#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"
#include "src/os/layout.hh"

namespace isim {

DssScanProcess::DssScanProcess(OltpEngine &engine, Pid pid, NodeId cpu,
                               std::uint64_t seed)
    : Process("dss" + std::to_string(pid), pid, cpu), engine_(engine),
      rng_(seed),
      privateBase_(layout::processPrivate +
                   pid * layout::processPrivateStride)
{
}

void
DssScanProcess::emitPlan()
{
    // Query compilation: a few optimizer functions, like OLTP's parse
    // phase but without the per-transaction repetition.
    const CodeModel &code = engine_.dbCode();
    for (unsigned i = 0; i < 3; ++i) {
        const unsigned f = static_cast<unsigned>(rng_.below(16));
        code.invoke(f, rng_, engine_.vm(), cpu(), false, pending_);
    }
    // Pick the query's scan range over the account blocks.
    const WorkloadParams &p = engine_.params();
    const std::uint64_t account_blocks =
        p.totalAccounts() / p.rowsPerBlock();
    blocksLeft_ = std::min<std::uint64_t>(p.dssBlocksPerQuery,
                                          account_blocks);
    scanBlock_ = rng_.below(account_blocks - blocksLeft_ + 1);
}

void
DssScanProcess::emitScanChunk()
{
    const WorkloadParams &p = engine_.params();
    VirtualMemory &vm = engine_.vm();
    const Sga &sga = engine_.sga();
    TpcbDatabase &db = engine_.db();

    // Account blocks start after branches and tellers; reuse the row
    // mapper so the scan walks exactly the functional table.
    const std::uint64_t block =
        db.accountRow(scanBlock_ * p.rowsPerBlock()).block;

    engine_.bufferCache().emitLookupAndPin(block, vm, cpu(), pending_);

    // The scan operator: a tight loop of a few hot code lines per
    // data line — a tiny instruction footprint with many instructions
    // per cache line of data, which is why DSS tolerates memory
    // latency so much better than OLTP.
    const Addr loop_line =
        vm.translate(engine_.dbCode().functionVaddr(0), cpu());
    const unsigned lines = p.blockBytes / 64;
    for (unsigned i = 0; i < lines; ++i) {
        pending_.push_back(instrChunk(loop_line, 16));
        pending_.push_back(loadRef(
            vm.translate(sga.blockByteAddr(block, i * 64), cpu())));
        // Aggregation state: a handful of hot private lines.
        pending_.push_back(storeRef(
            vm.translate(privateBase_ + (i % 16) * 64, cpu()),
            /*dep_dist=*/1));
    }

    engine_.bufferCache().emitUnpin(block, vm, cpu(), pending_);
    ++scanBlock_;
    --blocksLeft_;
}

void
DssScanProcess::emitFinalize()
{
    // Ship the aggregate to the client: one syscall, a few private
    // reads. No redo, no commit wait — queries are read-only.
    engine_.kernel().syscall(cpu(), pending_, /*copy_bytes=*/256);
    for (unsigned i = 0; i < 8; ++i) {
        pending_.push_back(
            loadRef(engine_.vm().translate(
                privateBase_ + i * 64, cpu())));
    }
}

ProcessStep
DssScanProcess::step(Tick now)
{
    if (!pending_.empty())
        return popPending();

    if (done_) {
        ProcessStep s;
        s.kind = StepKind::Done;
        return s;
    }

    // Batch refill: query-plan reference generation.
    switch (phase_) {
      case Phase::Plan:
        queryStart_ = now;
        emitPlan();
        phase_ = Phase::Scan;
        return popPending();
      case Phase::Scan:
        if (blocksLeft_ > 0) {
            emitScanChunk();
            return popPending();
        }
        phase_ = Phase::Finalize;
        [[fallthrough]];
      case Phase::Finalize: {
        ++queries_;
        engine_.noteCommit(now - queryStart_);
        emitFinalize();
        phase_ = Phase::Plan;
        if (engine_.measurementDone()) {
            done_ = true;
            return popPending();
        }
        return popPending();
      }
    }
    isim_panic("unreachable DSS phase");
}

void
DssScanProcess::saveState(ckpt::Serializer &s) const
{
    Process::saveState(s);
    rng_.saveState(s);
    s.u8(static_cast<std::uint8_t>(phase_));
    s.u64(queries_);
    s.u64(queryStart_);
    s.b(done_);
    s.u64(scanBlock_);
    s.u64(blocksLeft_);
}

void
DssScanProcess::restoreState(ckpt::Deserializer &d)
{
    Process::restoreState(d);
    rng_.restoreState(d);
    const std::uint8_t phase = d.u8();
    if (phase > static_cast<std::uint8_t>(Phase::Finalize))
        isim_fatal("checkpoint corrupt: DSS phase %u", phase);
    phase_ = static_cast<Phase>(phase);
    queries_ = d.u64();
    queryStart_ = d.u64();
    done_ = d.b();
    scanBlock_ = d.u64();
    blocksLeft_ = d.u64();
}

} // namespace isim
