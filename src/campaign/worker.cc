/**
 * @file
 * Campaign lease execution and the worker protocol loop.
 */

#include "src/campaign/worker.hh"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/logging.hh"
#include "src/campaign/cache.hh"
#include "src/campaign/protocol.hh"
#include "src/core/report.hh"
#include "src/sample/controller.hh"

namespace isim {
namespace campaign {

namespace {

/** Atomically place the group's warm image (tmp + rename). */
void
saveImageAtomic(const Machine &machine, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    machine.saveCheckpoint(tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec)
        isim_fatal("rename '%s' -> '%s' failed: %s", tmp.c_str(),
                   path.c_str(), ec.message().c_str());
}

/** Newlines would break the line protocol; flatten them. */
std::string
oneLine(std::string text)
{
    std::replace(text.begin(), text.end(), '\n', ' ');
    std::replace(text.begin(), text.end(), '\r', ' ');
    return text;
}

/** Blocking line reader over a file descriptor (worker stdin). */
class FdLineReader
{
  public:
    explicit FdLineReader(int fd) : fd_(fd) {}

    /** False on EOF or a read error. */
    bool
    nextLine(std::string &line)
    {
        for (;;) {
            const std::size_t pos = buf_.find('\n');
            if (pos != std::string::npos) {
                line = buf_.substr(0, pos);
                buf_.erase(0, pos + 1);
                return true;
            }
            char chunk[4096];
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            if (n == 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_;
    std::string buf_;
};

} // namespace

BarOutcome
runLeasedBar(const CampaignPlan &plan, const Lease &lease,
             const std::string &out_dir)
{
    isim_assert(lease.index < plan.bars.size(), "lease out of range");
    const CampaignBar &bar = plan.bars[lease.index];
    const std::string image = imagePath(out_dir, bar.groupKey);
    try {
        std::unique_ptr<Machine> machine;
        switch (lease.mode) {
          case LeaseMode::Cold:
          case LeaseMode::Build:
          case LeaseMode::ImageOnly:
            machine = std::make_unique<Machine>(bar.config);
            machine->runWarmup();
            if (lease.mode != LeaseMode::Cold)
                saveImageAtomic(*machine, image);
            if (lease.mode == LeaseMode::ImageOnly)
                return {true, ""};
            break;
          case LeaseMode::Restore:
            machine = Machine::fromCheckpoint(image, bar.config.level,
                                              bar.config.l2Impl);
            // A restore is valid only against this bar's group: any
            // other image would measure a different machine.
            if (warmGroupKey(machine->config()) != bar.groupKey)
                return {false, "warm image '" + image +
                                   "' does not match the bar's "
                                   "configuration group"};
            break;
        }

        RunResult r;
        if (plan.sample.enabled()) {
            sample::SampleController controller(*machine, plan.sample);
            r = controller.run();
        } else {
            r = machine->runMeasurement();
        }
        // A restored machine reports under the image's (builder's)
        // name; the result belongs to this bar.
        r.name = bar.name;
        r.resultKey = bar.key;
        r.configDigest = bar.configDigest;
        r.seed = bar.seed;
        if (!r.dbConsistent)
            return {false, "TPC-B consistency check failed"};

        // The cached bar file is a one-bar figure manifest; it must be
        // byte-stable across resumes (docs/CAMPAIGN.md).
        FigureResult cell;
        cell.spec.id = bar.figureId;
        cell.spec.title = "campaign cell";
        cell.runs.push_back(std::move(r));
        writeFileAtomic(barStatsPath(out_dir, bar.key),
                        figureStatsJson(cell));
        return {true, ""};
    } catch (const PanicError &e) {
        return {false, e.what()};
    }
}

int
workerMain(const std::string &spec_path, const std::string &out_dir,
           const RunOptions &options)
{
    // A dead supervisor surfaces as a failed write, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
    options.applyGlobal();

    // Spec/expansion errors exit(1) here — the supervisor treats the
    // EOF as a crash. Only once leases start do panics throw, so a
    // bad bar unwinds to a FAIL message instead of killing the pool.
    const CampaignSpec spec = loadCampaignSpec(spec_path);
    const CampaignPlan plan = expandCampaign(spec, options);
    setPanicThrow(true);

    WireMessage hello;
    hello.kind = WireMessage::Kind::Hello;
    hello.version = kProtocolVersion;
    hello.nbars = plan.bars.size();
    if (!writeMessage(STDOUT_FILENO, hello))
        return 1;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<Lease> queue;
    bool quit = false;
    std::mutex outMu; // serializes DONE/FAIL/PROG lines

    // Telemetry for PROG heartbeats (docs/CAMPAIGN.md). Pure
    // host-side progress reporting: none of it feeds results.
    std::atomic<std::uint64_t> doneCount{0};
    std::atomic<std::uint64_t> runningCount{0};
    std::atomic<long long> lastStarted{-1};

    const auto emitProg = [&] {
        WireMessage p;
        p.kind = WireMessage::Kind::Prog;
        p.done = doneCount.load(std::memory_order_relaxed);
        p.running = runningCount.load(std::memory_order_relaxed);
        const long long cur = lastStarted.load(std::memory_order_relaxed);
        p.hasCurrent = cur >= 0;
        p.current = cur >= 0 ? static_cast<std::size_t>(cur) : 0;
        const std::lock_guard<std::mutex> lock(outMu);
        writeMessage(STDOUT_FILENO, p);
    };

    const auto serve = [&] {
        for (;;) {
            Lease lease;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock,
                        [&] { return quit || !queue.empty(); });
                if (queue.empty())
                    return; // quit, and everything drained
                lease = queue.front();
                queue.pop_front();
            }
            runningCount.fetch_add(1, std::memory_order_relaxed);
            lastStarted.store(static_cast<long long>(lease.index),
                              std::memory_order_relaxed);
            emitProg(); // "current cell" telemetry on lease start
            const BarOutcome outcome =
                runLeasedBar(plan, lease, out_dir);
            runningCount.fetch_sub(1, std::memory_order_relaxed);
            doneCount.fetch_add(1, std::memory_order_relaxed);
            WireMessage msg;
            msg.index = lease.index;
            msg.mode = lease.mode;
            if (outcome.ok) {
                msg.kind = WireMessage::Kind::Done;
                msg.key = plan.bars[lease.index].key;
            } else {
                msg.kind = WireMessage::Kind::Fail;
                msg.reason = oneLine(outcome.reason);
            }
            const std::lock_guard<std::mutex> lock(outMu);
            writeMessage(STDOUT_FILENO, msg);
        }
    };

    // Liveness heartbeat: even with no lease activity the supervisor
    // hears from us every couple of seconds. Waits on its own
    // condition variable so a lease notify_one can never be consumed
    // by the ticker instead of a serve thread.
    std::condition_variable hbCv;
    const auto heartbeat = [&] {
        std::unique_lock<std::mutex> lock(mu);
        while (!quit) {
            hbCv.wait_for(lock, std::chrono::seconds(2));
            if (quit)
                break;
            lock.unlock();
            emitProg();
            lock.lock();
        }
    };

    const unsigned threads = std::max(1u, options.jobs);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(serve);
    std::thread ticker(heartbeat);

    int rc = 0;
    FdLineReader in(STDIN_FILENO);
    std::string line;
    while (in.nextLine(line)) {
        WireMessage msg;
        std::string err;
        if (!decodeMessage(line, msg, &err)) {
            isim_warn("campaign worker: protocol error: %s",
                      err.c_str());
            rc = 1;
            break;
        }
        if (msg.kind == WireMessage::Kind::Quit)
            break;
        if (msg.kind != WireMessage::Kind::Bar ||
            msg.index >= plan.bars.size()) {
            isim_warn("campaign worker: unexpected message '%s'",
                      line.c_str());
            rc = 1;
            break;
        }
        {
            const std::lock_guard<std::mutex> lock(mu);
            queue.push_back(Lease{msg.index, msg.mode});
        }
        cv.notify_one();
    }

    {
        const std::lock_guard<std::mutex> lock(mu);
        quit = true;
    }
    cv.notify_all();
    hbCv.notify_all();
    for (std::thread &t : pool)
        t.join();
    ticker.join();
    return rc;
}

} // namespace campaign
} // namespace isim
