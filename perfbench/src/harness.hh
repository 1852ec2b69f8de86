/**
 * @file
 * Measurement plumbing of the repository benchmark: strict argument
 * parsing, host clocks, tail percentiles with a minimum-tail rule,
 * in-memory spans with self-time accounting, the statistics digest,
 * and the JSON report. Nothing here touches simulator internals; the
 * benchmark observes every layer only through its public calls.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

/** Workloads the benchmark defines (see perfbench/README.md). */
inline const std::vector<std::string> kWorkloads = {
    "suite_serial", "fig6_study", "cmp_chip"};

/** Parsed command line. */
struct Options
{
    std::string workload;
    /** 0 keeps the suite's own seeds; any other value remixes them. */
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;
    /** Perform set-up only and report its time (setup_s sampling). */
    bool setup_only = false;
    /** Directory for result stores and the span file. */
    std::string out_dir;
};

/**
 * Parse `args` (argv without the program name). Every value must be
 * well formed in full: unknown flags, unknown workloads, non-decimal
 * or out-of-range numbers and missing values are rejected with a
 * message in `error`, never defaulted.
 */
std::optional<Options> parseArgs(const std::vector<std::string> &args,
                                 std::string &error);

/** Monotonic host time, ns. */
std::int64_t nowNs();
/** Process CPU time over all threads, s. */
double cpuSeconds();
/** Peak resident set size of this process, MiB. */
double peakRssMiB();

/** Median of `v` (mean of the middle pair for even sizes; 0 if empty). */
double median(std::vector<double> v);

/** Tail percentiles are reported only with this many samples beyond. */
constexpr std::size_t kMinBeyond = 10;

/**
 * Samples strictly beyond the nearest-rank `p`-quantile of `n`
 * samples (p in (0, 1)).
 */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Nearest-rank `p`-quantile of `v`, or nullopt when fewer than
 * kMinBeyond samples lie beyond it: a tail figure resting on a
 * handful of samples is noise, so it is refused rather than printed.
 */
std::optional<double> tailPercentile(std::vector<double> v, double p);

/** One recorded call: name, host interval, causing span, leaf id. */
struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span in the log; -1 for a root. */
    int parent = -1;
    /** Shared by every span of one leaf; -1 when not leaf-scoped. */
    long leaf = -1;

    std::int64_t durationNs() const { return end_ns - start_ns; }
};

/** Spans of one traced run, kept in memory until the run ends. */
class SpanLog
{
  public:
    /** Open a span now; returns its id (thread-safe). */
    int open(const char *name, int parent, long leaf);
    /** Close span `id` now (thread-safe). */
    void close(int id);
    /** Append an already-measured span (tests, replays). */
    int add(const Span &s);

    std::vector<Span> spans() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children. Overlapping children (parallel
 * rows on several threads) count once; child time outside the parent
 * interval is ignored.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Durations (ms) of the spans named `name`. */
std::vector<double> durationsMs(const std::vector<Span> &spans,
                                const std::string &name);

/** Write spans with their self times as JSON to `path`. */
bool writeSpans(const std::vector<Span> &spans, const std::string &path);

/**
 * Span scope over a possibly absent log: with a null log (the untraced
 * path) it records nothing, so one code path serves both runs.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, int parent = -1,
               long leaf = -1)
        : log_(log), id_(log ? log->open(name, parent, leaf) : -1)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

/** FNV-1a over `bytes`, continuing from `h`. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);
/** Fold one 64-bit value into `h`. */
std::uint64_t fnvFold(std::uint64_t h, std::uint64_t v);

/**
 * Deterministic remix of a simulator seed by the benchmark seed.
 * Seed 0 returns `base` unchanged, so the default run reproduces the
 * suite's own streams.
 */
std::uint64_t remixSeed(std::uint64_t base, std::uint64_t seed);

/** A reported metric's name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/**
 * The untraced run's metrics (minus setup_s, which the launcher takes
 * as a median over several processes) and the traced run's metrics,
 * in report order. They must match BENCHMARK.json.
 */
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/** What one driver process reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    double setup_s = 0.0;

    /** Record a metric; the name must be in kEndToEnd or kPerLayer. */
    void set(const std::string &name, double value);
    double get(const std::string &name) const;

    /**
     * One-line JSON object with every metric of `specs`. A metric the
     * workload does not exercise reads 0 (see perfbench/README.md).
     */
    std::string json(const std::vector<MetricSpec> &specs) const;

  private:
    std::vector<std::pair<std::string, double>> values_;
};

/**
 * Set leaf_ms_p50, leaf_samples (n) and, when tailPercentile allows
 * it, leaf_ms_p90 from leaf host times `ms`; a refused p90 stays 0
 * and is explained on stderr.
 */
void setLeafTimes(const std::vector<double> &ms, Report &r);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
