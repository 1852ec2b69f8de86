#include "common/logging.hh"

#include <cstdarg>
#include <vector>

namespace gals
{

namespace
{
bool quiet_flag = false;

const char *
prefix(LogLevel level)
{
    switch (level) {
      case LogLevel::Panic:  return "panic: ";
      case LogLevel::Fatal:  return "fatal: ";
      case LogLevel::Warn:   return "warn: ";
      case LogLevel::Inform: return "info: ";
    }
    return "";
}
} // namespace

namespace detail
{

void
logVa(LogLevel level, const char *fmt, std::va_list ap)
{
    if (quiet_flag &&
        (level == LogLevel::Warn || level == LogLevel::Inform)) {
        return;
    }
    std::FILE *out =
        (level == LogLevel::Inform) ? stdout : stderr;
    std::fputs(prefix(level), out);
    std::vfprintf(out, fmt, ap);
    std::fputc('\n', out);
    std::fflush(out);
}

} // namespace detail

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    detail::logVa(LogLevel::Panic, fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    detail::logVa(LogLevel::Fatal, fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    detail::logVa(LogLevel::Warn, fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    detail::logVa(LogLevel::Inform, fmt, ap);
    va_end(ap);
}

void
setQuiet(bool quiet)
{
    quiet_flag = quiet;
}

std::string
csprintf(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return {};
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace gals
