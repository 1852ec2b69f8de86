/**
 * @file
 * gem5-flavored status and error reporting.
 *
 * panic()  — an internal invariant was violated (simulator bug); aborts.
 * fatal()  — the user asked for something impossible (bad config); exits.
 * warn()   — something is approximated; simulation continues.
 * inform() — plain status output.
 */

#ifndef GALS_COMMON_LOGGING_HH
#define GALS_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gals
{

/** Severity levels understood by the logger. */
enum class LogLevel
{
    Panic,
    Fatal,
    Warn,
    Inform,
};

namespace detail
{
/** Shared printf-style sink; adds the level prefix and a newline. */
void logVa(LogLevel level, const char *fmt, std::va_list ap);
} // namespace detail

/** Report an internal simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a non-fatal modeling concern. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn()/inform() output (used by tests and sweeps). */
void setQuiet(bool quiet);

/** printf-style std::string formatter used across the project. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace gals

/**
 * Assert a simulator invariant with a formatted message.
 * Kept as a macro so the condition text appears in the report.
 */
#define GALS_ASSERT(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::gals::panic("assertion '%s' failed at %s:%d: %s", #cond,    \
                          __FILE__, __LINE__,                             \
                          ::gals::csprintf(__VA_ARGS__).c_str());         \
        }                                                                 \
    } while (0)

#endif // GALS_COMMON_LOGGING_HH
