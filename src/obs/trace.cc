#include "obs/trace.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/logging.hh"
#include "control/reconfig_trace.hh"
#include "obs/metrics.hh"

namespace gals
{

namespace obs
{

namespace detail
{

thread_local bool t_recording = false;

} // namespace detail

namespace
{

struct EvInfo
{
    const char *name;
    const char *cat;
};

const EvInfo &
evInfo(Ev kind)
{
    static const EvInfo table[] = {
        {"run", "domain"},              // DomainRun
        {"epoch_bump", "clock"},        // EpochBump
        {"pll_relock", "clock"},        // PllRelock
        {"reconfig", "reconfig"},       // Reconfig
        {"coh_invalidate", "coherence"}, // CohInvalidate
        {"coh_deliver", "coherence"},   // CohDeliver
        {"ownership_wait", "coherence"}, // OwnershipWait
        {"bank_conflict", "l2"},        // BankConflict
        {"mshr_wait", "l2"},            // MshrWait
        {"l2_fill", "l2"},              // L2Fill
        {"fill_merge", "l2"},           // FillMerge
    };
    return table[static_cast<size_t>(kind)];
}

/** Event-specific argument JSON ("{}" when none apply). */
std::string
evArgs(const TraceRecord &e)
{
    switch (e.kind) {
      case Ev::DomainRun:
        return csprintf("{\"steps\": %llu}",
                        static_cast<unsigned long long>(e.a0));
      case Ev::EpochBump:
        return csprintf("{\"period_ps\": %llu}",
                        static_cast<unsigned long long>(e.a0));
      case Ev::PllRelock:
        return csprintf("{\"lock_ps\": %llu, \"domain\": %llu}",
                        static_cast<unsigned long long>(e.a0),
                        static_cast<unsigned long long>(e.a1));
      case Ev::Reconfig:
        return csprintf("{\"structure\": \"%s\", \"from\": %llu, "
                        "\"to\": %llu}",
                        structureName(
                            static_cast<Structure>(e.a0)),
                        static_cast<unsigned long long>(e.a1 >> 8),
                        static_cast<unsigned long long>(e.a1 & 0xff));
      case Ev::CohInvalidate:
        return csprintf("{\"target_core\": %llu, \"line\": %llu}",
                        static_cast<unsigned long long>(e.a0),
                        static_cast<unsigned long long>(e.a1));
      case Ev::CohDeliver:
        return csprintf("{\"count\": %llu}",
                        static_cast<unsigned long long>(e.a0));
      case Ev::OwnershipWait:
        return csprintf("{\"settle_ps\": %llu}",
                        static_cast<unsigned long long>(e.a0));
      case Ev::BankConflict:
      case Ev::MshrWait:
      case Ev::FillMerge:
        return csprintf("{\"bank\": %llu}",
                        static_cast<unsigned long long>(e.a0));
      case Ev::L2Fill:
        return csprintf("{\"bank\": %llu, \"done_ps\": %llu}",
                        static_cast<unsigned long long>(e.a0),
                        static_cast<unsigned long long>(e.a1));
    }
    return "{}";
}

void
emitMeta(std::FILE *f, bool &first, int pid, int tid,
         const char *what, const std::string &name)
{
    std::fprintf(f,
                 "%s    {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
                 "\"name\": \"%s\", \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", pid, tid, what, name.c_str());
    first = false;
}

void
emitEvent(std::FILE *f, bool &first, int pid, int tid,
          const TraceRecord &e)
{
    // Simulated ticks are ps; Chrome trace ts is microseconds. The
    // conversion is exact in decimal text.
    constexpr double scale = 1e-6;
    constexpr int prec = 6;
    const EvInfo &info = evInfo(e.kind);
    const std::string args = evArgs(e);
    if (e.dur > 0) {
        std::fprintf(f,
                     "%s    {\"ph\": \"X\", \"pid\": %d, \"tid\": %d, "
                     "\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ts\": %.*f, \"dur\": %.*f, \"args\": %s}",
                     first ? "" : ",\n", pid, tid, info.name,
                     info.cat, prec,
                     static_cast<double>(e.ts) * scale, prec,
                     static_cast<double>(e.dur) * scale,
                     args.c_str());
    } else {
        std::fprintf(f,
                     "%s    {\"ph\": \"i\", \"pid\": %d, \"tid\": %d, "
                     "\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ts\": %.*f, \"s\": \"t\", \"args\": %s}",
                     first ? "" : ",\n", pid, tid, info.name,
                     info.cat, prec,
                     static_cast<double>(e.ts) * scale,
                     args.c_str());
    }
    first = false;
}

std::string
trackName(int gd)
{
    return csprintf("core%d/%s", gd / kNumDomains,
                    domainTag(static_cast<DomainId>(gd % kNumDomains)));
}

std::once_flag g_env_init_once;

} // namespace

Tracer &
Tracer::instance()
{
    // Intentionally immortal (never destroyed): the at-exit exporter
    // and late worker-thread teardown may touch the tracer after
    // static destruction would have run.
    static Tracer *tracer = new Tracer;
    return *tracer;
}

bool
Tracer::configure(const std::string &path)
{
    // Reconfiguration drops prior state; the previous path's runs do
    // not leak into the new export target.
    reset();
    enabled_ = false;
    path_.clear();
    if (path.empty()) {
        warn("GALS_TRACE is empty; tracing disabled");
        return false;
    }
    // Probe the path now (the export happens at process exit, far
    // from whoever mistyped the option): an unusable target costs
    // one warning up front and tracing stays off.
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("trace path '%s' is not writable; tracing disabled",
             path.c_str());
        return false;
    }
    std::fclose(f);
    path_ = path;
    enabled_ = true;
    if (!exit_hook_registered_) {
        exit_hook_registered_ = true;
        std::atexit([]() {
            Tracer &t = Tracer::instance();
            if (t.enabled())
                t.write();
        });
    }
    return true;
}

bool
Tracer::configureFromEnv()
{
    const char *env = std::getenv("GALS_TRACE");
    if (env == nullptr || *env == '\0') {
        disable();
        return false;
    }
    return configure(env);
}

void
Tracer::disable()
{
    reset();
    enabled_ = false;
    path_.clear();
}

bool
Tracer::beginRun(const char *label, int ncores)
{
    if (!enabled_)
        return false;
    bool expected = false;
    if (!run_active_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        // Another run (a concurrent sweep worker) holds the tracer:
        // this run proceeds untraced.
        ++skipped_runs_;
        return false;
    }
    if (runs_.size() >= kTraceMaxRuns) {
        run_active_.store(false, std::memory_order_release);
        ++skipped_runs_;
        return false;
    }
    auto rt = std::make_unique<RunTrace>();
    rt->label = label;
    rt->tracks.resize(static_cast<size_t>(ncores) * kNumDomains);
    cur_ = rt.get();
    runs_.push_back(std::move(rt));
    detail::t_recording = true;
    return true;
}

void
Tracer::endRun()
{
    detail::t_recording = false;
    cur_ = nullptr;
    run_active_.store(false, std::memory_order_release);
}

void
Tracer::record(Track &t, Ev kind, Tick ts, Tick dur, std::uint64_t a0,
               std::uint64_t a1)
{
    // The per-track publication-order tripwire: a timestamp below
    // the track's high-water mark means an event was recorded out of
    // its lane's publication order (tests/test_obs.cc death test).
    GALS_ASSERT(ts >= t.last_ts,
                "trace publication-order violation: event '%s' at "
                "ts=%llu recorded after the track reached ts=%llu",
                evInfo(kind).name,
                static_cast<unsigned long long>(ts),
                static_cast<unsigned long long>(t.last_ts));
    t.last_ts = ts;
    if (t.events.size() >= kTraceMaxEventsPerTrack) {
        ++t.dropped;
        return;
    }
    t.events.push_back(TraceRecord{ts, dur, kind, a0, a1});
}

void
Tracer::domainStep(int gd, Tick edge, Tick period)
{
    RunTrace *rt = cur_;
    if (!detail::t_recording || rt == nullptr)
        return;
    Track &t = rt->tracks[static_cast<size_t>(gd)];
    // Contiguous (or overlapping, after a period change shortens the
    // cycle) steps merge into one busy span; sleep is the gap between
    // spans.
    if (!t.events.empty()) {
        TraceRecord &last = t.events.back();
        if (last.kind == Ev::DomainRun && edge >= last.ts &&
            edge <= last.ts + last.dur) {
            Tick end = edge + period;
            if (end > last.ts + last.dur)
                last.dur = end - last.ts;
            ++last.a0;
            t.last_ts = edge;
            return;
        }
    }
    record(t, Ev::DomainRun, edge, period, 1, 0);
}

void
Tracer::sim(int gd, Ev kind, Tick ts, std::uint64_t a0,
            std::uint64_t a1)
{
    RunTrace *rt = cur_;
    if (!detail::t_recording || rt == nullptr)
        return;
    record(rt->tracks[static_cast<size_t>(gd)], kind, ts, 0, a0, a1);
}

bool
Tracer::write() const
{
    return writeTo(path_);
}

bool
Tracer::writeTo(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot write trace '%s'", path.c_str());
        return false;
    }
    const std::uint64_t dropped = eventsDropped();
    if (dropped > 0) {
        warn("trace dropped %llu events past the per-track cap",
             static_cast<unsigned long long>(dropped));
    }
    std::fprintf(f, "{\n  \"displayTimeUnit\": \"ns\",\n");
    std::fprintf(f,
                 "  \"otherData\": {\"schema\": \"gals-trace-v1\", "
                 "\"runs\": %zu, \"skipped_runs\": %llu, "
                 "\"dropped_events\": %llu},\n",
                 runs_.size(),
                 static_cast<unsigned long long>(skipped_runs_),
                 static_cast<unsigned long long>(dropped));
    std::fprintf(f, "  \"traceEvents\": [\n");
    bool first = true;
    for (size_t i = 0; i < runs_.size(); ++i) {
        // Run i is process i + 1; its tids are global domain
        // indices (core * kNumDomains + local domain).
        const RunTrace &rt = *runs_[i];
        const int pid = static_cast<int>(i + 1);
        emitMeta(f, first, pid, 0, "process_name",
                 csprintf("run%zu: %s", i, rt.label.c_str()));
        for (int tid = 0; tid < static_cast<int>(rt.tracks.size());
             ++tid) {
            if (rt.tracks[static_cast<size_t>(tid)].events.empty())
                continue;
            emitMeta(f, first, pid, tid, "thread_name", trackName(tid));
        }
        for (int tid = 0; tid < static_cast<int>(rt.tracks.size());
             ++tid) {
            for (const TraceRecord &e :
                 rt.tracks[static_cast<size_t>(tid)].events) {
                emitEvent(f, first, pid, tid, e);
            }
        }
    }
    std::fprintf(f, "\n  ]\n}\n");
    const bool ok = std::fclose(f) == 0;
    if (!ok)
        warn("cannot write trace '%s'", path.c_str());
    MetricsRegistry &m = MetricsRegistry::instance();
    m.set("obs.trace.runs", runs_.size());
    m.set("obs.trace.runs_skipped", skipped_runs_);
    m.set("obs.trace.events", eventsRecorded());
    m.set("obs.trace.events_dropped", dropped);
    return ok;
}

void
Tracer::reset()
{
    GALS_ASSERT(!run_active_.load(std::memory_order_acquire),
                "tracer reset while a traced run is in flight");
    runs_.clear();
    cur_ = nullptr;
    skipped_runs_ = 0;
}

std::vector<Tracer::TrackView>
Tracer::trackViews() const
{
    std::vector<TrackView> out;
    for (size_t i = 0; i < runs_.size(); ++i) {
        const RunTrace &rt = *runs_[i];
        for (int tid = 0; tid < static_cast<int>(rt.tracks.size());
             ++tid) {
            const Track &t = rt.tracks[static_cast<size_t>(tid)];
            if (t.events.empty())
                continue;
            out.push_back(
                TrackView{trackName(tid), static_cast<int>(i), &t.events});
        }
    }
    return out;
}

std::uint64_t
Tracer::eventsRecorded() const
{
    std::uint64_t n = 0;
    for (const auto &rt : runs_) {
        for (const Track &t : rt->tracks)
            n += t.events.size();
    }
    return n;
}

std::uint64_t
Tracer::eventsDropped() const
{
    std::uint64_t n = 0;
    for (const auto &rt : runs_) {
        for (const Track &t : rt->tracks)
            n += t.dropped;
    }
    return n;
}

void
ensureInitFromEnv()
{
    std::call_once(g_env_init_once, []() {
        const char *env = std::getenv("GALS_TRACE");
        if (env != nullptr && *env != '\0')
            Tracer::instance().configure(env);
        MetricsRegistry::instance().configureFromEnv();
    });
}

} // namespace obs

} // namespace gals
