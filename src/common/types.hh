/**
 * @file
 * Fundamental scalar types shared by every module.
 *
 * All simulated time is kept in integral picoseconds so that clock-edge
 * arithmetic across domains with unrelated frequencies stays exact.
 */

#ifndef GALS_COMMON_TYPES_HH
#define GALS_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <type_traits>

namespace gals
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "never" / "not scheduled". */
constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

/** Cycle count within one clock domain. */
using Cycle = std::uint64_t;

/** Global instruction sequence number (program order). */
using SeqNum = std::uint64_t;

/** Byte address in the synthetic address space. */
using Addr = std::uint64_t;

/** Picoseconds per nanosecond / microsecond, for readability. */
constexpr Tick kPsPerNs = 1000;
constexpr Tick kPsPerUs = 1000 * 1000;

/** Convert a frequency in GHz to a clock period in ps (rounded). */
constexpr Tick
periodPsFromGHz(double ghz)
{
    return static_cast<Tick>(1000.0 / ghz + 0.5);
}

/** Convert a period in ps back to GHz. */
constexpr double
ghzFromPeriodPs(Tick ps)
{
    return 1000.0 / static_cast<double>(ps);
}

/** The four adaptive clock domains of the MCD processor. */
enum class DomainId : std::uint8_t
{
    FrontEnd = 0,
    Integer = 1,
    FloatingPoint = 2,
    LoadStore = 3,
    NumDomains = 4,
    /** Fixed-frequency main memory, modeled as a fifth, non-adaptive
     * domain. */
    External = 4,
};

constexpr int kNumDomains = 4;

/** Printable domain name. */
const char *domainName(DomainId id);

/**
 * Field lists. Each config and stats struct declares, next to its
 * definition, `forEachField(s, f)`: f(name, member) once per field, in
 * result-store key and payload order, `name` being the key name. The
 * result-store key text, its payloads and the test harness's equality
 * all derive from these visitors. Each visitor opens with a structured
 * binding over the whole struct, so an unlisted member fails to compile.
 * FieldsOf<T> admits T and const T, so one visitor serves both.
 */
template <class S, class T>
concept FieldsOf = std::is_same_v<std::remove_const_t<S>, T>;

} // namespace gals

#endif // GALS_COMMON_TYPES_HH
