/**
 * @file
 * Index-parallel helper for the sweep layer.
 *
 * Simulations are independent and deterministic, so running them on a
 * few host threads changes nothing but wall-clock time. Each top-level
 * parallelFor starts its helper threads, shares one atomic chunk
 * cursor between them and the calling thread, and joins them before
 * it returns; no thread outlives the call. Indices are handed out in
 * chunks, so a 1,024-point sweep costs ~dozens of atomic operations
 * instead of one per design point.
 *
 * GALS_THREADS caps the worker count (0/unset = hardware concurrency);
 * it is re-read on every call so tests can toggle it with setenv.
 * Nested parallelFor calls (a sweep inside a per-benchmark study task)
 * run inline on the calling worker, which bounds the thread fan-out:
 * a study makes one top-level call, so it starts its threads once.
 *
 * A chip run steps all of its cores on the calling thread; chip
 * sweeps get their parallelism from parallelFor, one chip per index.
 */

#ifndef GALS_SIM_PARALLEL_HH
#define GALS_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"

namespace gals
{

namespace detail
{

/** True while this thread runs a parallelFor body: nested calls then
 * run inline, which bounds the thread fan-out. */
inline bool &
onWorker()
{
    thread_local bool flag = false;
    return flag;
}

} // namespace detail

/**
 * Strictly parse a thread-count environment variable. The entire
 * string must be a decimal integer in [1, ceiling]; empty, trailing
 * garbage, non-numeric, zero, negative, or out-of-range input falls
 * back (garbage to `fallback`, overlarge clamped to `ceiling`) with
 * a logged warning instead of silently misconfiguring the sweep —
 * the old unchecked strtol read "8x" as 8 and "-3" as "unset".
 */
inline unsigned
threadCountFromEnv(const char *name, const char *text,
                   unsigned fallback, unsigned ceiling)
{
    std::optional<long long> v = parseInteger(text, 1, LLONG_MAX);
    if (!v) {
        warn("%s=\"%s\" is not a positive integer; using %u", name,
             text, fallback);
        return fallback;
    }
    if (*v > static_cast<long long>(ceiling)) {
        warn("%s=%lld exceeds the supported maximum of %u; clamping",
             name, *v, ceiling);
        return ceiling;
    }
    return static_cast<unsigned>(*v);
}

/** Worker cap: GALS_THREADS when set (validated, clamped to the
 * hardware thread count), else hardware threads. */
inline unsigned
sweepThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (const char *env = std::getenv("GALS_THREADS")) {
        // Sweep work items are independent, so threads beyond the
        // hardware's only add scheduling overhead: clamp there.
        return threadCountFromEnv("GALS_THREADS", env, hw, hw);
    }
    return hw;
}

/**
 * Invoke fn(i) for every i in [0, count) across up to `max_threads`
 * host threads (0 = GALS_THREADS / hardware concurrency). fn must be
 * thread-safe with respect to distinct indices. Results must not
 * depend on execution order; every simulation here is deterministic
 * per index, so thread count never changes any output.
 */
template <typename Fn>
void
parallelFor(size_t count, Fn fn, unsigned max_threads = 0)
{
    if (count == 0)
        return;
    unsigned limit = sweepThreads();
    unsigned n = max_threads == 0 ? limit
                                  : std::min(max_threads, limit);
    n = static_cast<unsigned>(std::min<size_t>(n, count));

    if (n <= 1 || detail::onWorker()) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Chunked claiming: large enough to amortize the atomic, small
    // enough to balance uneven run times.
    size_t chunk =
        std::max<size_t>(1, count / (static_cast<size_t>(n) * 8));
    std::atomic<size_t> next{0};
    auto work = [&] {
        detail::onWorker() = true;
        for (size_t begin; (begin = next.fetch_add(chunk)) < count;) {
            size_t end = std::min(begin + chunk, count);
            for (size_t i = begin; i < end; ++i)
                fn(i);
        }
    };
    {
        // The caller is one of the n workers; the helpers are joined
        // when this scope ends, before any result is read.
        std::vector<std::jthread> helpers;
        helpers.reserve(n - 1);
        for (unsigned t = 1; t < n; ++t)
            helpers.emplace_back(work);
        work();
        detail::onWorker() = false;
    }
}

} // namespace gals

#endif // GALS_SIM_PARALLEL_HH
