/**
 * @file
 * Index-parallel helper for the sweep layer.
 *
 * Simulations are independent and deterministic, so running them on a
 * few host threads changes nothing but wall-clock time. Unlike the
 * original spawn-threads-per-call helper, the pool here is persistent:
 *  - worker threads are created once and reused across the hundreds
 *    of parallelFor calls of a study;
 *  - indices are handed out in chunks, so a 1,024-point sweep costs
 *    ~dozens of atomic operations instead of one per design point.
 *
 * GALS_THREADS caps the worker count (0/unset = hardware concurrency);
 * it is re-read on every call so tests can toggle it with setenv.
 * Nested parallelFor calls (a sweep inside a per-benchmark study task)
 * run inline on the calling worker, which bounds the thread fan-out.
 *
 * A chip run steps all of its cores on the calling thread; chip
 * sweeps get their parallelism from this pool, one chip per index.
 */

#ifndef GALS_SIM_PARALLEL_HH
#define GALS_SIM_PARALLEL_HH

#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"

namespace gals
{

namespace detail
{

/** Lazily started, process-lifetime worker pool. */
class SweepPool
{
  public:
    static SweepPool &
    instance()
    {
        static SweepPool pool;
        return pool;
    }

    /** True on a pool worker thread (nested calls run inline). */
    static bool &
    onWorker()
    {
        thread_local bool flag = false;
        return flag;
    }

    /**
     * Run fn(i) for i in [0, count) on up to `workers` threads (the
     * caller participates too). Blocks until every index completed.
     */
    void
    run(size_t count, const std::function<void(size_t)> &fn,
        unsigned workers)
    {
        ensureThreads(workers - 1);

        Job job;
        job.fn = &fn;
        job.count = count;
        // Chunked claiming: large enough to amortize the atomic,
        // small enough to balance uneven run times.
        size_t chunk = count / (static_cast<size_t>(workers) * 8);
        job.chunk = chunk == 0 ? 1 : chunk;

        job.slots = workers - 1; // pool workers allowed to adopt.

        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            ++generation_;
        }
        cv_.notify_all();

        // The caller participates as one of the `workers`; while it
        // does, nested parallelFor calls on this thread run inline
        // (same rule as pool workers), so a per-benchmark sweep
        // inside a study task cannot re-enter the pool.
        bool was_worker = onWorker();
        onWorker() = true;
        work(job);
        onWorker() = was_worker;

        // Wait until every index ran AND no worker still holds a
        // pointer to the stack-allocated job.
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] {
            return job.completed == count && adopters_ == 0;
        });
        job_ = nullptr;
    }

  private:
    struct Job
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t count = 0;
        size_t chunk = 1;
        std::atomic<size_t> next{0};
        size_t completed = 0; //!< guarded by mutex_.
        unsigned slots = 0;   //!< adoption budget; guarded by mutex_.
    };

    void
    ensureThreads(unsigned n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        while (threads_.size() < n) {
            threads_.emplace_back([this] {
                onWorker() = true;
                workerLoop();
            });
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            Job *job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return stop_ || (job_ && generation_ != seen);
                });
                if (stop_)
                    return;
                seen = generation_;
                // Honor the job's thread cap (GALS_THREADS or the
                // caller's max_threads): surplus workers sit this
                // generation out.
                if (job_->slots == 0)
                    continue;
                --job_->slots;
                job = job_;
                ++adopters_;
            }
            work(*job);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                --adopters_;
            }
            done_cv_.notify_all();
        }
    }

    void
    work(Job &job)
    {
        size_t done = 0;
        for (;;) {
            size_t begin = job.next.fetch_add(job.chunk);
            if (begin >= job.count)
                break;
            size_t end = begin + job.chunk;
            if (end > job.count)
                end = job.count;
            for (size_t i = begin; i < end; ++i)
                (*job.fn)(i);
            done += end - begin;
        }
        if (done != 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            job.completed += done;
        }
        done_cv_.notify_all();
    }

    SweepPool() = default;

    ~SweepPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> threads_;
    Job *job_ = nullptr;
    std::uint64_t generation_ = 0;
    unsigned adopters_ = 0; //!< workers holding the current job.
    bool stop_ = false;
};

} // namespace detail

/**
 * Strictly parse a thread-count environment variable. The entire
 * string must be a decimal integer in [1, ceiling]; empty, trailing
 * garbage, non-numeric, zero, negative, or out-of-range input falls
 * back (garbage to `fallback`, overlarge clamped to `ceiling`) with
 * a logged warning instead of silently misconfiguring the pool —
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

    if (n <= 1 || detail::SweepPool::onWorker()) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::function<void(size_t)> erased = [&](size_t i) { fn(i); };
    detail::SweepPool::instance().run(count, erased, n);
}

} // namespace gals

#endif // GALS_SIM_PARALLEL_HH
