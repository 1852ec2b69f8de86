/**
 * @file
 * Process-wide metrics registry: named counters and gauges that
 * units publish into, serialized as one deterministic JSON document
 * (docs/observability.md). This is the machine-readable telemetry
 * surface — the result store's stderr stats line and the chip's
 * interconnect and coherence counters all fold into it — while
 * human-facing stderr lines stay as they are.
 *
 * Opt-in output: `GALS_METRICS=<path>` writes the registry at
 * process exit.
 * Publishing into the registry is always allowed (cheap: one mutex
 * and a map touch, far off every simulated hot path) and perturbs no
 * simulated state, so traced/metered runs stay bit-identical.
 */

#ifndef GALS_OBS_METRICS_HH
#define GALS_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace gals
{

namespace obs
{

class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Bump counter `name` by `delta` (created at 0). */
    void add(std::string_view name, std::uint64_t delta);

    /** Set gauge `name` to an absolute integer value. */
    void set(std::string_view name, std::uint64_t value);

    /** Set gauge `name` to an absolute floating-point value. */
    void setDouble(std::string_view name, double value);

    /** Current value of an integer metric (0 when absent; tests). */
    std::uint64_t value(std::string_view name) const;

    /** True when `name` has been published (tests). */
    bool has(std::string_view name) const;

    /** Drop every metric (tests). */
    void clear();

    /** Deterministic JSON document: metrics sorted by name. */
    std::string json() const;

    /**
     * Write json() to `path`. The strict logged-fallback contract:
     * an unwritable path costs one warn() and returns false, never
     * a crash.
     */
    bool writeTo(const std::string &path) const;

    /** Read GALS_METRICS and register the at-exit writer on its
     * path (unusable path: one warn(), no writer). Idempotent per
     * distinct configuration; ensureInitFromEnv() is the caller. */
    void configureFromEnv();

    const std::string &exitPath() const { return exit_path_; }

  private:
    MetricsRegistry() = default;

    struct Entry
    {
        bool is_double = false;
        std::uint64_t u = 0;
        double d = 0.0;
    };

    mutable std::mutex mu_;
    std::map<std::string, Entry, std::less<>> metrics_;
    std::string exit_path_;
    bool exit_hook_registered_ = false;
};

} // namespace obs

} // namespace gals

#endif // GALS_OBS_METRICS_HH
