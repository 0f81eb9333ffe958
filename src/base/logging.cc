/**
 * @file
 * Implementation of the status/error reporting helpers.
 */

#include "src/base/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace isim {

namespace {

bool quietFlag = false;
bool panicThrowFlag = false;

/**
 * Condition text of this thread's most recent isim_assert, in throw
 * mode. Per thread: concurrent failing asserts must each throw
 * their own condition.
 */
thread_local std::string pendingCondition;

/**
 * One line, one write: concurrent threads' lines never interleave
 * mid-line.
 */
void
vreport(const char *tag, const char *fmt, std::va_list ap)
{
    std::string line = tag;
    line += ": ";
    std::va_list copy;
    va_copy(copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n > 0) {
        const std::size_t head = line.size();
        line.resize(head + static_cast<std::size_t>(n) + 1);
        std::vsnprintf(&line[head], static_cast<std::size_t>(n) + 1,
                       fmt, ap);
        line.pop_back(); // vsnprintf's terminator
    }
    line += '\n';
    std::fputs(line.c_str(), stderr);
}

} // namespace

void
setQuiet(bool q)
{
    quietFlag = q;
}

bool
quiet()
{
    return quietFlag;
}

void
setPanicThrow(bool throws)
{
    panicThrowFlag = throws;
    pendingCondition.clear();
}

bool
panicThrows()
{
    return panicThrowFlag;
}

void
assertNote(const char *condition_text)
{
    if (panicThrowFlag) {
        // Defer; panicImpl folds the condition into the exception.
        pendingCondition = condition_text;
        return;
    }
    std::fprintf(stderr, "assertion '%s' failed\n", condition_text);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    if (panicThrowFlag) {
        char body[1024];
        std::va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(body, sizeof(body), fmt, ap);
        va_end(ap);
        std::string msg = "panic: ";
        msg += file;
        msg += ':';
        msg += std::to_string(line);
        msg += ": ";
        if (!pendingCondition.empty()) {
            msg += "assertion '" + pendingCondition + "' failed. ";
            pendingCondition.clear();
        }
        msg += body;
        throw PanicError(msg);
    }
    std::fprintf(stderr, "panic: %s:%d: ", file, line);
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    if (panicThrowFlag) {
        // Throwing (not exiting) matters on the executor's lease
        // threads: a bad configuration must unwind back to the
        // runner, not std::exit() the whole figure mid-flight.
        char body[1024];
        std::va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(body, sizeof(body), fmt, ap);
        va_end(ap);
        std::string msg = "fatal: ";
        msg += file;
        msg += ':';
        msg += std::to_string(line);
        msg += ": ";
        msg += body;
        throw PanicError(msg);
    }
    std::fprintf(stderr, "fatal: %s:%d: ", file, line);
    std::va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    if (quietFlag)
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

} // namespace isim
