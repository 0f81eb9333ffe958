/**
 * @file
 * The two Oracle daemons the paper singles out as participating
 * directly in transaction execution: the log writer (group-commits
 * redo to disk; every server's commit waits on it) and the database
 * writer (periodically flushes dirty buffer-cache blocks).
 */

#ifndef ISIM_OLTP_DAEMONS_HH
#define ISIM_OLTP_DAEMONS_HH

#include "src/oltp/workload.hh"
#include "src/os/process.hh"

namespace isim {

/** The log-writer daemon (group commit). */
class LogWriterProcess : public Process
{
  public:
    LogWriterProcess(OltpEngine &engine, Pid pid, NodeId cpu);

    ProcessStep step(Tick now) override;

    std::uint64_t flushes() const { return flushes_; }

    void saveState(ckpt::Serializer &s) const override;
    void restoreState(ckpt::Deserializer &d) override;

  private:
    enum class State : std::uint8_t { Idle, Writing, Completing };

    OltpEngine &engine_;
    State state_ = State::Idle;
    std::vector<Process *> serving_;
    std::uint64_t flushes_ = 0;
    std::uint64_t commitsServed_ = 0;
};

/** The database-writer daemon (dirty block flusher). */
class DbWriterProcess : public Process
{
  public:
    DbWriterProcess(OltpEngine &engine, Pid pid, NodeId cpu,
                    std::uint64_t seed);

    ProcessStep step(Tick now) override;

    void saveState(ckpt::Serializer &s) const override;
    void restoreState(ckpt::Deserializer &d) override;

  private:
    OltpEngine &engine_;
    Rng rng_;
    std::uint64_t blocksFlushed_ = 0;
};

} // namespace isim

#endif // ISIM_OLTP_DAEMONS_HH
