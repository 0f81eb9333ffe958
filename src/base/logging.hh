/**
 * @file
 * Error / status reporting in the gem5 tradition.
 *
 * panic()  - an internal simulator bug; aborts (may dump core).
 * fatal()  - a user error (bad configuration, invalid arguments);
 *            exits with status 1.
 * warn()   - functionality that may not behave as the user expects.
 * inform() - normal status messages.
 */

#ifndef ISIM_BASE_LOGGING_HH
#define ISIM_BASE_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace isim {

/**
 * Thrown instead of aborting when panic-throw mode is active (see
 * setPanicThrow). Carries the fully formatted panic message, so
 * verification harnesses can report *which* invariant broke and keep
 * exploring.
 */
class PanicError : public std::runtime_error
{
  public:
    explicit PanicError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print the failed condition text of an isim_assert (never suppressed). */
void assertNote(const char *condition_text);

/** Suppress warn()/inform() output (used by tests). */
void setQuiet(bool quiet);
bool quiet();

/**
 * When enabled, panicImpl (and therefore isim_panic / isim_assert)
 * throws PanicError instead of aborting, and fatalImpl / isim_fatal
 * throws instead of exiting. The default (abort/exit) is right for
 * simulation runs — a failed invariant means results are garbage —
 * but the model checker and the mutation tests need to observe
 * violations and report a trace instead of dying, and the executor's
 * lease threads need configuration errors to unwind, not std::exit().
 */
void setPanicThrow(bool throws);
bool panicThrows();

/** RAII scope for setPanicThrow; restores the previous mode. */
class ScopedPanicThrow
{
  public:
    ScopedPanicThrow() : prev_(panicThrows()) { setPanicThrow(true); }
    ~ScopedPanicThrow() { setPanicThrow(prev_); }
    ScopedPanicThrow(const ScopedPanicThrow &) = delete;
    ScopedPanicThrow &operator=(const ScopedPanicThrow &) = delete;

  private:
    bool prev_;
};

} // namespace isim

#define isim_panic(...) ::isim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define isim_fatal(...) ::isim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define isim_warn(...) ::isim::warnImpl(__VA_ARGS__)
#define isim_inform(...) ::isim::informImpl(__VA_ARGS__)

/**
 * Invariant check that stays on in release builds. Use for simulator
 * self-consistency conditions whose violation means an isim bug.
 * An optional printf-style message may follow the condition.
 */
#define isim_assert(cond, ...)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::isim::assertNote(#cond);                                      \
            ::isim::panicImpl(__FILE__, __LINE__,                           \
                              "assertion failed. " __VA_ARGS__);            \
        }                                                                   \
    } while (0)

#endif // ISIM_BASE_LOGGING_HH
