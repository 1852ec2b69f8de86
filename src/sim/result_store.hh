/**
 * @file
 * Persistent, content-addressed sweep result store.
 *
 * Every sweep, study and CMP point is a deterministic function of
 * (machine or chip configuration, workload parameters, seed) — the
 * same tuples are re-simulated over and over across goldens,
 * differential sweeps, perf smoke and the adaptive studies. The store
 * memoizes those leaf simulations on disk: a result is keyed by a
 * stable hash of the canonically serialized configuration tuple plus
 * a simulator code-version tag, so any point computed before — by an
 * earlier run, another shard, or a previous PR within the same code
 * version — becomes a cache hit that skips simulation entirely.
 * Because each completed point is persisted immediately, a killed
 * `sweep_cli --shard` run resumes from the store instead of
 * recomputing, and a merge can assemble a full result from a mix of
 * fresh and cached rows (rows are value-exact, so the JSON stays
 * byte-identical to a cache-off run).
 *
 * Safety is by construction, not by trust:
 *  - records carry a magic, the code-version tag, the full key text
 *    and a checksum; unknown, truncated, corrupt or stale records are
 *    silently treated as misses (recompute, never trust);
 *  - writes are atomic (write-temp-then-rename), so a concurrent
 *    writer or a kill mid-write can never publish a torn record, and
 *    two processes racing on one key publish identical bytes (every
 *    payload is a deterministic function of the key);
 *  - caching defaults OFF: it activates only via GALS_RESULT_CACHE
 *    or `sweep_cli --cache-dir`, so determinism gates keep exercising
 *    the live simulator (docs/testing.md pins that policy).
 *
 * Record layout (little-endian, docs/kernel.md "Result store"):
 *   u32 magic 'GRS1' | u32 tag_len, tag | u32 key_len, key
 *   | u32 payload_len, payload | u64 FNV-1a checksum of all prior
 *   bytes. The file name is the 128-bit FNV-1a of the key text (two
 *   independently seeded 64-bit streams), hex, suffix ".grs".
 */

#ifndef GALS_SIM_RESULT_STORE_HH
#define GALS_SIM_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cmp/chip.hh"
#include "core/machine_config.hh"
#include "core/run_stats.hh"
#include "workload/params.hh"

namespace gals
{

/**
 * Simulator code-version tag baked into every record. Bump its
 * trailing counter whenever a change alters any simulated result
 * (RunStats values, RNG streams, timing model): stale-tag records then
 * degrade to misses instead of resurrecting old numbers. The differential and
 * golden gates run cache-off, so a forgotten bump cannot corrupt
 * them — only warm-cache sweeps would serve outdated rows until the
 * tag moves.
 */
constexpr const char *kResultStoreVersion = "gals-results-v2";

/** One directory of content-addressed result records. */
class ResultStore
{
  public:
    /** Default-constructed store is disabled: lookups miss without
     * touching the filesystem, stores are no-ops. */
    ResultStore() = default;

    /**
     * Enable the store on `dir` (created if missing). A nonexistent,
     * uncreatable or unwritable directory logs one warning and
     * leaves the store disabled — never a crash (same logged-fallback
     * contract as threadCountFromEnv). Returns enabled().
     */
    bool open(const std::string &dir,
              const std::string &version_tag = kResultStoreVersion);

    /** Disable the store and reset the counters. */
    void close();

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Fetch the payload recorded for `key`. Returns false — a miss —
     * when the store is disabled, no record exists, or the record
     * fails any validation (magic, checksum, version tag, full key
     * comparison against hash collisions).
     */
    bool lookup(const std::string &key, std::string &payload) const;

    /** Persist `payload` under `key` (atomic rename; failures are
     * logged once per store and otherwise ignored — the cache is an
     * accelerator, never a correctness dependency). */
    void store(const std::string &key,
               const std::string &payload) const;

    /** Absolute record path for `key` (tests corrupt records here). */
    std::string recordPath(const std::string &key) const;

    /** Lifetime telemetry (since open). */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        /** Records present but rejected (corrupt/stale/foreign). */
        std::uint64_t rejects = 0;
    };
    Counters counters() const;

    /** Mirror counters() into the obs metrics registry under
     * "result_store.*" (the --metrics-out telemetry surface). */
    void publishMetrics() const;

    /** e.g. "result-store: 256 hits, 0 misses, 0 stored ...". Also
     * calls publishMetrics(), so the stderr line and the registry
     * can never drift apart. */
    std::string statsLine() const;

  private:
    std::string dir_; //!< empty = disabled.
    std::string tag_ = kResultStoreVersion;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> stores_{0};
    mutable std::atomic<std::uint64_t> rejects_{0};
    mutable std::atomic<bool> write_warned_{false};
};

/**
 * The process-wide store used by the sweep layer. First use reads
 * GALS_RESULT_CACHE (a directory path; unset/empty or unusable keeps
 * the store disabled, the latter with a logged warning).
 */
ResultStore &resultStore();

/** Point the global store at `dir` (empty string disables). Used by
 * `sweep_cli --cache-dir` and tests; call from one thread only. */
void configureResultStore(const std::string &dir);

// ----------------------------------------------------------------------
// Canonical key serialization. Every semantic field of the
// configuration tuple is rendered as stable text (doubles in %a
// hexfloat, so the key is exact); two tuples differing in any field
// produce different keys, and the text survives in each record for
// collision-proof verification.
// ----------------------------------------------------------------------
std::string resultKey(const MachineConfig &machine,
                      const WorkloadParams &workload);
std::string resultKey(const ChipConfig &chip,
                      const std::vector<WorkloadParams> &workloads);

// ----------------------------------------------------------------------
// Binary payload (de)serialization. Value-exact: every counter and
// tick travels verbatim, so a cached RunStats is indistinguishable
// from a fresh one (that is what keeps warm JSON byte-identical —
// all reported doubles are derived from these exact integers).
// Deserializers return false on any malformed input.
// ----------------------------------------------------------------------
std::string serializeRunStats(const RunStats &stats);
bool deserializeRunStats(const std::string &bytes, RunStats &out);
std::string serializeChipRunStats(const ChipRunStats &stats);
bool deserializeChipRunStats(const std::string &bytes,
                             ChipRunStats &out);

// ----------------------------------------------------------------------
// Cached simulation wrappers — the sweep layer's entry points. With
// the store disabled they are exactly simulate()/Chip::run() (the
// enabled() check is the only overhead on that path); with it
// enabled, a hit skips the simulation and a miss simulates then
// persists the result before returning.
// ----------------------------------------------------------------------
RunStats cachedSimulate(const MachineConfig &machine,
                        const WorkloadParams &workload);
ChipRunStats cachedChipRun(const ChipConfig &chip,
                           const std::vector<WorkloadParams> &workloads);

} // namespace gals

#endif // GALS_SIM_RESULT_STORE_HH
