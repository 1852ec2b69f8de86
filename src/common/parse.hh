/**
 * @file
 * Strict integer parsing for CLI arguments and environment knobs.
 *
 * The whole string must be one decimal integer inside [lo, hi]: empty
 * input, leading whitespace, trailing characters ("2x"), overflow and
 * out-of-range values are all rejected, where atoi/strtol would
 * silently half-parse them ("2x" -> 2, "abc" -> 0).
 */

#ifndef GALS_COMMON_PARSE_HH
#define GALS_COMMON_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace gals
{

/** `text` as a decimal integer in [lo, hi], or nullopt. */
inline std::optional<long long>
parseInteger(const char *text, long long lo, long long hi)
{
    if (text == nullptr || *text == '\0' ||
        std::isspace(static_cast<unsigned char>(*text))) {
        return std::nullopt;
    }
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text, &end, 10);
    if (errno != 0 || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return v;
}

/** parseInteger for a command-line value: bad input prints which
 * argument was wrong and exits with status 2 (usage error). */
inline long long
parseIntegerArg(const char *what, const char *text, long long lo,
                long long hi)
{
    std::optional<long long> v = parseInteger(text, lo, hi);
    if (!v) {
        std::fprintf(stderr, "%s: '%s' is not an integer in [%lld, %lld]\n",
                     what, text, lo, hi);
        std::exit(2);
    }
    return *v;
}

} // namespace gals

#endif // GALS_COMMON_PARSE_HH
