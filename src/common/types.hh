/**
 * @file
 * Fundamental scalar types shared by every module.
 *
 * All simulated time is kept in integral picoseconds so that clock-edge
 * arithmetic across domains with unrelated frequencies stays exact.
 */

#ifndef GALS_COMMON_TYPES_HH
#define GALS_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

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

/**
 * The four adaptive structures, one per domain; the adaptive-structure
 * table (core/machine_config.hh) pairs each with its domain. The order
 * is the residency and reconfiguration-log encoding.
 */
enum class Structure : std::uint8_t
{
    ICache,
    DCachePair,
    IntIssueQueue,
    FpIssueQueue,
};

constexpr int kNumStructures = 4;

/** Short domain tag ("fe", "int", "fp", "ls"): trace track and metric
 * name suffix. */
const char *domainTag(DomainId id);

/**
 * Field lists. Each config, stats and sweep-row struct declares, next
 * to its definition, `forEachField(s, f)`: f(name, member) once per
 * field, in the order its output lists them, `name` being the output
 * name. What derives from them (docs/testing.md, "One declaration per
 * list"):
 *  - MachineConfig, WorkloadParams, ChipConfig: the result-store key;
 *  - RunStats, ChipRunStats: the result-store payloads, the test
 *    harness's equality, and the measured-window counters (every
 *    std::uint64_t RunStats field is a window counter, taken as the
 *    difference of two lifetime snapshots; Core::collectStats);
 *  - BenchmarkResult, SyncPointRuntimes, AdaptivePointRuntime,
 *    CmpPointResult: the sweep JSON rows (sim/report.cc).
 * Each visitor opens with a structured binding over the whole struct,
 * so an unlisted member fails to compile. FieldsOf<T> admits T and
 * const T, so one visitor serves both.
 */
template <class S, class T>
concept FieldsOf = std::is_same_v<std::remove_const_t<S>, T>;

/**
 * f(name, a_member, b_member) over two structs of one type, in
 * visitor order; `b` is read-only.
 */
template <class A, class B, class F>
    requires std::is_same_v<std::remove_const_t<A>, std::remove_const_t<B>>
void
forEachFieldPair(A &a, const B &b, F &&f)
{
    std::vector<const void *> bs;
    forEachField(b, [&](const char *, const auto &v) { bs.push_back(&v); });
    std::size_t i = 0;
    forEachField(a, [&](const char *name, auto &va) {
        using T = std::remove_cvref_t<decltype(va)>;
        f(name, va, *static_cast<const T *>(bs[i++]));
    });
}

} // namespace gals

#endif // GALS_COMMON_TYPES_HH
