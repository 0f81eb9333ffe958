/**
 * @file
 * Server transaction state machine.
 */

#include "src/oltp/server.hh"

#include "src/base/intmath.hh"
#include "src/base/logging.hh"
#include "src/ckpt/serializer.hh"
#include "src/os/layout.hh"

namespace isim {

ServerProcess::ServerProcess(OltpEngine &engine, Pid pid, NodeId cpu,
                             std::uint64_t seed)
    : Process("server" + std::to_string(pid), pid, cpu), engine_(engine),
      rng_(seed),
      privateBase_(layout::processPrivate +
                   pid * layout::processPrivateStride)
{
    // Stagger the warm-band sweep so servers do not walk in lockstep.
    warmCursor_ = rng_.below(
        engine.params().warmMetadataBytes / 64);
}

void
ServerProcess::emitLineData(Rng &rng, RefQueue &out)
{
    const WorkloadParams &p = engine_.params();
    double want = p.dataRefsPerLine;
    while (want >= 1.0 || rng.chance(want)) {
        want -= 1.0;
        const double kind = rng.uniform();
        const bool dep = rng.chance(p.dependentFraction);
        // Chains bind tightly: most dependent refs hang off the
        // immediately preceding access (pointer chasing).
        const std::uint8_t dep_dist =
            dep ? static_cast<std::uint8_t>(rng.chance(0.7)
                                                ? 1
                                                : 1 + rng.below(3))
                : 0;
        Addr vaddr;
        bool store = false;
        if (kind < p.privateFraction) {
            // Stack / PGA: hot, node-private.
            vaddr = privateBase_ + engine_.privateZipf()(rng) * 64;
            store = rng.chance(p.mixerStoreFraction);
        } else if (kind < p.privateFraction + p.metadataFraction) {
            // Hot SGA metadata. Half the traffic goes to per-node
            // session state (private), half to the shared dictionary,
            // whose entries are updated often (pin counts, usage
            // counters) — the true-sharing traffic that makes OLTP's
            // communication misses dirty 3-hop ones.
            const std::uint64_t line = engine_.metadataZipf()(rng);
            if (rng.chance(0.5)) {
                vaddr = engine_.sga().sharedMetadataAddr(line * 64);
                store = rng.chance(p.sharedMetadataStoreFraction);
            } else {
                vaddr = engine_.sga().sessionMetadataAddr(cpu(),
                                                          line * 64);
                store = rng.chance(p.mixerStoreFraction);
            }
        } else if (kind < p.privateFraction + p.metadataFraction +
                              p.warmFraction) {
            // Warm dictionary tail: a cyclic sweep, so every line is
            // reused at a fixed ~warmMetadataBytes reuse distance —
            // captured by caches larger than the band, thrashing in
            // smaller ones (the paper's 2-4 MB behaviour).
            warmCursor_ = (warmCursor_ + 1) % (p.warmMetadataBytes / 64);
            vaddr = engine_.sga().warmMetadataAddr(warmCursor_ * 64);
        } else {
            // Re-read near the row most recently worked on.
            const std::uint64_t lines = p.blockBytes / 64;
            const std::uint64_t around =
                (lastRowLine_ + rng.below(2)) % lines;
            vaddr = engine_.sga().blockByteAddr(lastBlockTouched_,
                                                around * 64);
        }
        const Addr paddr = engine_.vm().translate(vaddr, cpu());
        out.push_back(store ? storeRef(paddr, dep_dist)
                            : loadRef(paddr, dep_dist));
    }
}

void
ServerProcess::invokeGroup(unsigned group_base, unsigned group_len,
                           unsigned count)
{
    const CodeModel &code = engine_.dbCode();
    const ZipfTable &pick = engine_.functionZipf(group_len);
    for (unsigned i = 0; i < count; ++i) {
        const unsigned f = group_base + static_cast<unsigned>(pick(rng_));
        code.invoke(f % code.numFunctions(), rng_, engine_.vm(), cpu(),
                    /*kernel=*/false, pending_, this);
    }
}

void
ServerProcess::emitIndexBlock(std::uint64_t block)
{
    engine_.bufferCache().emitLookupAndPin(block, engine_.vm(), cpu(),
                                           pending_);
    // Walk the key line of the index block.
    const Addr base = engine_.sga().blockAddr(block);
    pending_.push_back(loadRef(
        engine_.vm().translate(
            base + 64 * rng_.below(engine_.params().blockBytes / 64),
            cpu()),
        /*dep_dist=*/1));
    engine_.bufferCache().emitUnpin(block, engine_.vm(), cpu(), pending_);
    lastBlockTouched_ = block;
}

void
ServerProcess::emitRowAccess(const RowLocation &loc, bool write)
{
    const WorkloadParams &p = engine_.params();
    VirtualMemory &vm = engine_.vm();
    const Sga &sga = engine_.sga();

    const std::uint64_t bucket = sga.bucketOf(loc.block);
    const unsigned latch = sga.hashLatchOf(bucket);
    engine_.latches().emitAcquire(latch, vm, cpu(), pending_);
    engine_.bufferCache().emitLookupAndPin(loc.block, vm, cpu(),
                                           pending_);
    engine_.latches().emitRelease(latch, vm, cpu(), pending_);

    // Block header line, then the row's line(s).
    pending_.push_back(loadRef(vm.translate(sga.blockAddr(loc.block),
                                            cpu()),
                               /*dep_dist=*/1));
    const Addr row_line =
        roundDown(sga.blockByteAddr(loc.block, loc.offset), 64);
    for (unsigned i = 0; i < p.blockLinesPerRowRead; ++i) {
        pending_.push_back(
            loadRef(vm.translate(row_line + i * 64, cpu()),
                    /*dep_dist=*/1));
    }
    if (write) {
        pending_.push_back(storeRef(vm.translate(row_line, cpu()),
                                    /*dep_dist=*/1));
        engine_.bufferCache().markDirty(loc.block);
    }
    if (rng_.chance(0.3)) {
        engine_.bufferCache().emitLruTouch(loc.block, vm, cpu(),
                                           pending_);
    }
    engine_.bufferCache().emitUnpin(loc.block, vm, cpu(), pending_);
    lastBlockTouched_ = loc.block;
    lastRowLine_ = static_cast<std::uint32_t>(loc.offset / 64);
}

void
ServerProcess::emitReadRequest()
{
    // Pipe read from the client: kernel path plus a private buffer.
    engine_.kernel().syscall(cpu(), pending_, /*copy_bytes=*/256);
    for (unsigned i = 0; i < 4; ++i) {
        pending_.push_back(storeRef(
            engine_.vm().translate(privateBase_ + 8 * kib + i * 64,
                                   cpu())));
    }
}

void
ServerProcess::emitParse()
{
    const unsigned n = engine_.params().parseInvocations;
    // Functions [0, 32): parser, optimizer, cursor cache.
    invokeGroup(0, 32, n);
}

void
ServerProcess::emitExecute()
{
    const WorkloadParams &p = engine_.params();
    TpcbDatabase &db = engine_.db();

    // Draw the TPC-B operands: uniform teller; its branch; the account
    // is in the teller's branch 85% of the time.
    teller_ = rng_.below(p.totalTellers());
    branch_ = teller_ / p.tellersPerBranch;
    std::uint64_t account_branch = branch_;
    if (!rng_.chance(0.85))
        account_branch = rng_.below(p.branches);
    account_ = account_branch * p.accountsPerBranch +
               rng_.below(p.accountsPerBranch);
    delta_ = static_cast<std::int64_t>(rng_.range(1, 999999)) - 500000;

    // Lock-manager / dictionary probes: headers of random blocks, a
    // rarely-reused stream spread over tens of MB of metadata. These
    // are the accesses that keep evicting hot lines from large
    // direct-mapped caches.
    for (unsigned i = 0; i < p.coldHeaderScans; ++i) {
        const std::uint64_t blk =
            rng_.below(engine_.sga().numBlocks());
        pending_.push_back(loadRef(engine_.vm().translate(
            engine_.sga().headerAddr(blk), cpu())));
    }

    const unsigned n = p.executeInvocations;
    // Functions [32, 96): execution engine, row access, buffer cache.
    invokeGroup(32, 64, n / 4);
    // Account B-tree walk, then the row update.
    emitIndexBlock(db.accountIndexRoot());
    emitIndexBlock(db.accountIndexLeaf(account_));
    emitRowAccess(db.accountRow(account_), /*write=*/true);
    invokeGroup(32, 64, n / 4);
    // Teller and branch updates (hot, write-shared blocks).
    emitRowAccess(db.tellerRow(teller_), /*write=*/true);
    emitRowAccess(db.branchRow(branch_), /*write=*/true);
    invokeGroup(32, 64, n / 4);
    // History insert.
    const RowLocation hist = db.appendHistory();
    emitRowAccess(hist, /*write=*/true);
    invokeGroup(32, 64, n - 3 * (n / 4));

    // The functional update happens here (balances actually move).
    db.applyTransaction(account_, teller_, branch_, delta_);
}

void
ServerProcess::emitRedo()
{
    // Functions [96, 112): redo generation.
    invokeGroup(96, 16, 2);
    engine_.redo().emitRedoGeneration(
        static_cast<unsigned>(pid()), /*slots=*/4, engine_.latches(),
        engine_.vm(), cpu(), pending_);
}

void
ServerProcess::emitRespond()
{
    // Functions [112, 128): commit cleanup, result marshalling.
    invokeGroup(112, 16, engine_.params().commitInvocations);
    engine_.kernel().syscall(cpu(), pending_, /*copy_bytes=*/128);
}

ProcessStep
ServerProcess::step(Tick now)
{
    if (!pending_.empty())
        return popPending();

    if (done_) {
        ProcessStep s;
        s.kind = StepKind::Done;
        return s;
    }

    // Batch refill: the transaction state machine generating the next
    // phase's references.
    switch (phase_) {
      case Phase::ReadRequest:
        txnStart_ = now;
        if (obs::Tracer *tr = engine_.tracer();
            ISIM_OBS_ACTIVE(tr)) {
            tr->instant(obs::EventKind::TxnBegin, now,
                        static_cast<std::uint16_t>(cpu()), 0,
                        static_cast<std::uint32_t>(pid()));
        }
        emitReadRequest();
        phase_ = Phase::Parse;
        return popPending();
      case Phase::Parse:
        emitParse();
        phase_ = Phase::Execute;
        return popPending();
      case Phase::Execute:
        emitExecute();
        phase_ = Phase::Redo;
        return popPending();
      case Phase::Redo:
        emitRedo();
        phase_ = Phase::Commit;
        return popPending();
      case Phase::Commit: {
        // Submit the commit and sleep until the log writer wakes us.
        engine_.requestCommit(*this, now);
        phase_ = Phase::Respond;
        ProcessStep s;
        s.kind = StepKind::BlockEvent;
        return s;
      }
      case Phase::Respond:
        ++txns_;
        engine_.noteCommit(now - txnStart_);
        if (obs::Tracer *tr = engine_.tracer();
            ISIM_OBS_ACTIVE(tr)) {
            tr->span(obs::EventKind::TxnCommit, txnStart_,
                     now - txnStart_,
                     static_cast<std::uint16_t>(cpu()), 0,
                     static_cast<std::uint32_t>(pid()));
        }
        emitRespond();
        phase_ = Phase::Think;
        return popPending();
      case Phase::Think: {
        phase_ = Phase::ReadRequest;
        if (engine_.measurementDone()) {
            done_ = true; // exit after the measured run completes
            ProcessStep s;
            s.kind = StepKind::Done;
            return s;
        }
        ProcessStep s;
        s.kind = StepKind::BlockTimed;
        s.delay = engine_.params().clientThinkTime;
        return s;
      }
    }
    isim_panic("unreachable server phase");
}

void
ServerProcess::saveState(ckpt::Serializer &s) const
{
    Process::saveState(s);
    rng_.saveState(s);
    s.u8(static_cast<std::uint8_t>(phase_));
    s.u64(txns_);
    s.u64(txnStart_);
    s.b(done_);
    s.u64(account_);
    s.u64(teller_);
    s.u64(branch_);
    s.i64(delta_);
    s.u64(lastBlockTouched_);
    s.u32(lastRowLine_);
    s.u64(warmCursor_);
}

void
ServerProcess::restoreState(ckpt::Deserializer &d)
{
    Process::restoreState(d);
    rng_.restoreState(d);
    const std::uint8_t phase = d.u8();
    if (phase > static_cast<std::uint8_t>(Phase::Think))
        isim_fatal("checkpoint corrupt: server phase %u", phase);
    phase_ = static_cast<Phase>(phase);
    txns_ = d.u64();
    txnStart_ = d.u64();
    done_ = d.b();
    account_ = d.u64();
    teller_ = d.u64();
    branch_ = d.u64();
    delta_ = d.i64();
    lastBlockTouched_ = d.u64();
    lastRowLine_ = d.u32();
    warmCursor_ = d.u64();
    // Each indexes a fixed-size range; a forged value would reach the
    // SGA's address asserts on the next reference.
    const WorkloadParams &p = engine_.params();
    const auto in_range = [&](const char *field, std::uint64_t value,
                              std::uint64_t bound, const char *what) {
        if (value >= bound)
            isim_fatal("checkpoint corrupt: server %u %s %llu is not "
                       "below %llu %s",
                       pid(), field,
                       static_cast<unsigned long long>(value),
                       static_cast<unsigned long long>(bound), what);
    };
    in_range("lastBlockTouched", lastBlockTouched_,
             engine_.sga().numBlocks(), "SGA blocks");
    in_range("lastRowLine", lastRowLine_, p.blockBytes / 64,
             "lines per block");
    in_range("warmCursor", warmCursor_, p.warmMetadataBytes / 64,
             "warm metadata lines");
}

} // namespace isim
