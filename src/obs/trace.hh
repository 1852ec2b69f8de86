/**
 * @file
 * Deterministic event tracer (docs/observability.md).
 *
 * One clock lane, timestamped in simulated picosecond ticks: domain
 * step spans, PLL relocks and epoch bumps, reconfiguration decisions,
 * coherence invalidation/delivery messages, and L2 bank conflicts and
 * fills. Events land in per-track append buffers — one track per
 * (core, domain) — and are exported as Chrome trace-event JSON
 * loadable in Perfetto / chrome://tracing.
 *
 * The tracer is strictly observation-only. It is off by default and
 * armed by `GALS_TRACE=<path>` (the result-store opt-in pattern:
 * an unusable path degrades to one warn() and tracing stays
 * disabled, never a crash) or `--trace-out`. When disabled, the only
 * cost on any hot path is the single `obs::tracing()` branch — a
 * thread-local bool that is false everywhere. When enabled, every
 * record call appends to a buffer and touches no simulated state, no
 * RNG stream and no timing decision, so traced runs are bit-identical
 * to untraced runs (tests/test_obs.cc pins this differentially).
 *
 * Publication-order contract: every track's timestamps are
 * nondecreasing in record order, asserted at record time (the same
 * spirit as the port layer's publication-order tripwires). The
 * instrumentation sites guarantee it structurally: every event lands
 * on the track of the domain whose step records it, and the
 * scheduler delivers each domain's steps in nondecreasing time.
 */

#ifndef GALS_OBS_TRACE_HH
#define GALS_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace gals
{

namespace obs
{

/** Traced-run cap: a process tracing more runs than this (a sweep
 * under GALS_TRACE) keeps the first kTraceMaxRuns and counts the
 * rest as skipped, reported in the export's otherData. */
constexpr int kTraceMaxRuns = 16;

/** Per-track event cap; overflow increments the track's drop
 * counter (early events — the first invalidation, the first
 * reconfiguration — always survive). */
constexpr std::size_t kTraceMaxEventsPerTrack = std::size_t{1} << 18;

/** Event taxonomy (docs/observability.md lists the emitted name,
 * category, and argument schema of each). */
enum class Ev : std::uint8_t
{
    DomainRun,      //!< merged busy span of consecutive domain steps
    EpochBump,      //!< a period change landed (grid epoch broadcast)
    PllRelock,      //!< reconfig started a PLL relock window
    Reconfig,       //!< accepted structure-change decision
    CohInvalidate,  //!< invalidation published to a remote sharer
    CohDeliver,     //!< invalidations delivered into an L1D
    OwnershipWait,  //!< read delayed to an ownership-transfer settle
    BankConflict,   //!< request delayed behind another core's bank use
    MshrWait,       //!< miss waited for a bank fill slot
    L2Fill,         //!< miss issued a memory fill
    FillMerge,      //!< hit merged with another core's in-flight fill
};

/** One recorded event. `ts`/`dur` are simulated picoseconds;
 * dur == 0 is an instant. */
struct TraceRecord
{
    Tick ts = 0;
    Tick dur = 0;
    Ev kind = Ev::DomainRun;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

namespace detail
{

/** True while the calling thread belongs to the traced run. This is
 * the single branch every instrumentation site pays when tracing is
 * off (and for every thread outside the traced run when it is on). */
extern thread_local bool t_recording;

} // namespace detail

/** The hot-path check: false for every thread unless the process
 * tracer is armed AND this thread is executing the traced run. */
inline bool
tracing()
{
    return detail::t_recording;
}

class Tracer
{
  public:
    static Tracer &instance();

    /**
     * Arm the tracer on `path` (the export target). The strict
     * logged-fallback contract of threadCountFromEnv: an unusable
     * path (empty, unwritable, missing directory) leaves tracing
     * disabled after one warn() and never crashes. Returns enabled().
     */
    bool configure(const std::string &path);

    /** Re-read GALS_TRACE and configure from it (tests). Unset or
     * empty disables silently; an unusable path warns, see above. */
    bool configureFromEnv();

    /** Disarm and drop all recorded runs (tests). */
    void disable();

    bool enabled() const { return enabled_; }
    const std::string &path() const { return path_; }

    // ------------------------------------------------------------------
    // Run lifecycle.
    // ------------------------------------------------------------------

    /**
     * Claim the tracer for one run of `ncores` cores and mark the
     * calling thread as recording. Returns false (run untraced) when
     * the tracer is disabled, another run currently holds it, or the
     * run cap is reached. The caller must pass a true return to
     * endRun() when the run completes.
     */
    bool beginRun(const char *label, int ncores);

    /** Release the claim taken by a successful beginRun(). */
    void endRun();

    // ------------------------------------------------------------------
    // Recording (timestamps in picosecond ticks). Callers must check
    // obs::tracing() first; these also no-op defensively.
    // ------------------------------------------------------------------

    /** A domain step at `edge` on global domain `gd`: merged into
     * the previous DomainRun span when contiguous, so sleep shows as
     * gaps between spans. */
    void domainStep(int gd, Tick edge, Tick period);

    /** An instant on global domain `gd`'s track. */
    void sim(int gd, Ev kind, Tick ts, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0);

    // ------------------------------------------------------------------
    // Export and introspection.
    // ------------------------------------------------------------------

    /** Write Chrome trace-event JSON to the configured path. Returns
     * false (after a warn) when the file cannot be written. */
    bool write() const;

    /** Same, to an explicit path. */
    bool writeTo(const std::string &path) const;

    /** Drop every recorded run, keep the armed/disarmed state. */
    void reset();

    /** Flat view of one track for tests. */
    struct TrackView
    {
        std::string name;    //!< e.g. "core0/ls"
        int run = 0;         //!< run index within the process
        const std::vector<TraceRecord> *events = nullptr;
    };
    /** Every non-empty track of every recorded run. Call only while
     * no traced run is in flight. */
    std::vector<TrackView> trackViews() const;

    std::uint64_t runsRecorded() const { return runs_.size(); }
    std::uint64_t runsSkipped() const { return skipped_runs_; }
    std::uint64_t eventsRecorded() const;
    std::uint64_t eventsDropped() const;

  private:
    Tracer() = default;

    struct Track
    {
        std::vector<TraceRecord> events;
        Tick last_ts = 0;
        std::uint64_t dropped = 0;
    };

    struct RunTrace
    {
        std::string label;
        /** One track per global domain (ncores * kNumDomains). */
        std::vector<Track> tracks;
    };

    void record(Track &t, Ev kind, Tick ts, Tick dur,
                std::uint64_t a0, std::uint64_t a1);

    bool enabled_ = false;
    std::string path_;
    bool exit_hook_registered_ = false;
    std::vector<std::unique_ptr<RunTrace>> runs_;
    RunTrace *cur_ = nullptr;
    std::atomic<bool> run_active_{false};
    std::uint64_t skipped_runs_ = 0;
};

/**
 * One-time process observability init: arms the tracer from
 * GALS_TRACE and the metrics registry from GALS_METRICS (both with
 * the logged-fallback contract) and registers the at-exit exporters.
 * Called from every run entry point; after the first call it is a
 * single atomic load.
 */
void ensureInitFromEnv();

} // namespace obs

} // namespace gals

#endif // GALS_OBS_TRACE_HH
