#include "sim/result_store.hh"

#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ranges>
#include <sstream>
#include <type_traits>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "sim/simulation.hh"

namespace fs = std::filesystem;

namespace gals
{

namespace
{

// ----------------------------------------------------------------------
// Hashing. FNV-1a over the key text, run as two independently seeded
// 64-bit streams for a 128-bit file name: cheap, dependency-free,
// and collisions are harmless anyway — every record carries the full
// key text and lookup compares it, so a colliding record is rejected
// as foreign, never trusted.
// ----------------------------------------------------------------------
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
constexpr std::uint64_t kFnvBasisA = 0xcbf29ce484222325ULL;
/** Second stream: the standard basis xor-folded with a salt so the
 * two streams never agree on nontrivial input. */
constexpr std::uint64_t kFnvBasisB = 0x9ae16a3b2f90404fULL;

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

constexpr std::uint32_t kMagic = 0x31535247; // "GRS1" little-endian.

// ----------------------------------------------------------------------
// Byte stream helpers (explicit little-endian, bounds-checked reads).
// ----------------------------------------------------------------------
template <class U>
void
put(std::string &out, U v)
{
    for (std::size_t i = 0; i < sizeof(U); ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putString(std::string &out, const std::string &s)
{
    put(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

/** Bounds-checked sequential reader; every get returns false once
 * the stream is exhausted or malformed. */
struct ByteReader
{
    const std::string &buf;
    std::size_t off = 0;

    template <class U>
    bool
    get(U &v)
    {
        if (off + sizeof(U) > buf.size())
            return false;
        v = 0;
        for (std::size_t i = 0; i < sizeof(U); ++i)
            v |= static_cast<U>(static_cast<unsigned char>(buf[off + i]))
                 << (8 * i);
        off += sizeof(U);
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::uint32_t n = 0;
        if (!get(n) || off + n > buf.size())
            return false;
        s.assign(buf, off, n);
        off += n;
        return true;
    }

    bool done() const { return off == buf.size(); }
};

// ----------------------------------------------------------------------
// Key text rendering. Stable, exact and unambiguous: integers in
// decimal, doubles in %a hexfloat, strings length-prefixed, nested
// structs as name{...}. The text is stored verbatim in each record,
// so it doubles as the collision check and as a human-readable record
// of what the row is. The fields and their names come from the
// structs' forEachField visitors (common/types.hh).
//
// Rendered with snprintf into stack buffers appended in place: a key
// is ~30 fields per machine plus ~30 per workload phase, and the
// csprintf-temporary-per-field version dominated the warm-hit path
// of cached sweeps (the key is rebuilt on every probe, hit or miss).
// ----------------------------------------------------------------------
template <class T> constexpr bool kIsVector = false;
template <class T> constexpr bool kIsVector<std::vector<T>> = true;

void
keyValue(std::string &out, const char *name, const char *fmt, ...)
{
    char buf[48];
    va_list args;
    va_start(args, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    GALS_ASSERT(n > 0 && n < static_cast<int>(sizeof(buf)),
                "result-store key field overflow");
    out += name;
    out += '=';
    out.append(buf, static_cast<std::size_t>(n));
    out += ';';
}

/** Appends one visited field to the key text. */
struct KeyWriter
{
    std::string &out;

    template <class T>
    void
    operator()(const char *name, const T &v) const
    {
        if constexpr (std::is_same_v<T, std::string>) {
            keyValue(out, name, "%zu:", v.size());
            out.insert(out.size() - 1, v); // name=<len>:<text>;
        } else if constexpr (std::is_same_v<T, double>) {
            keyValue(out, name, "%a", v);
        } else if constexpr (std::is_signed_v<T> || std::is_enum_v<T>) {
            keyValue(out, name, "%lld", static_cast<long long>(v));
        } else if constexpr (std::is_unsigned_v<T>) { // incl. bool.
            keyValue(out, name, "%llu",
                     static_cast<unsigned long long>(v));
        } else if constexpr (kIsVector<T>) {
            for (const auto &e : v)
                (*this)(name, e);
        } else {
            out += name;
            out += '{';
            forEachField(v, *this);
            out += '}';
        }
    }
};

// ----------------------------------------------------------------------
// Payloads: the visited fields in order as little-endian u64s,
// length-prefixed strings, u32-counted vectors and uncounted arrays;
// a nested struct is a length-prefixed payload of its own.
// ----------------------------------------------------------------------
struct PayloadWriter
{
    std::string &out;

    template <class S>
    static std::string
    of(const S &s)
    {
        std::string bytes;
        forEachField(s, PayloadWriter{bytes});
        return bytes;
    }

    template <class T>
    void
    operator()(const char *name, const T &v) const
    {
        if constexpr (std::is_same_v<T, std::string>) {
            putString(out, v);
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            put(out, v);
        } else if constexpr (std::is_same_v<T, ReconfigTrace>) {
            put(out, static_cast<std::uint32_t>(v.events().size()));
            for (const ReconfigEvent &e : v.events()) {
                put(out, e.committed_instrs);
                put(out, static_cast<std::uint32_t>(e.structure));
                put(out, static_cast<std::uint32_t>(e.from_index));
                put(out, static_cast<std::uint32_t>(e.to_index));
            }
        } else if constexpr (std::ranges::range<T>) {
            if constexpr (kIsVector<T>)
                put(out, static_cast<std::uint32_t>(v.size()));
            for (const auto &e : v)
                (*this)(name, e);
        } else {
            putString(out, of(v));
        }
    }
};

/** Reads back what PayloadWriter wrote; `ok` drops to false (and
 * stays there) at the first exhausted or malformed field. */
struct PayloadReader
{
    ByteReader &r;
    bool ok = true;

    /** `bytes` as exactly one S. */
    template <class S>
    static bool
    parse(const std::string &bytes, S &out)
    {
        out = S{};
        ByteReader r{bytes};
        PayloadReader read{r};
        forEachField(out, read);
        return read.ok && r.done();
    }

    template <class T>
    void
    operator()(const char *name, T &v)
    {
        if (!ok)
            return;
        if constexpr (std::is_same_v<T, std::string>) {
            ok = r.getString(v);
        } else if constexpr (std::is_same_v<T, std::uint64_t>) {
            ok = r.get(v);
        } else if constexpr (std::is_same_v<T, ReconfigTrace>) {
            std::uint32_t n = 0;
            ok = r.get(n);
            for (std::uint32_t i = 0; ok && i < n; ++i) {
                std::uint64_t at = 0;
                std::uint32_t s = 0, from = 0, to = 0;
                ok = r.get(at) && r.get(s) && r.get(from) && r.get(to) &&
                     s <= 3;
                if (ok)
                    v.record(at, static_cast<Structure>(s),
                             static_cast<int>(from), static_cast<int>(to));
            }
        } else if constexpr (std::ranges::range<T>) {
            // Every element takes at least one byte, so a count past
            // the remaining bytes is malformed (and never allocated).
            if constexpr (kIsVector<T>) {
                std::uint32_t n = 0;
                ok = r.get(n) && n <= r.buf.size() - r.off;
                v.resize(ok ? n : 0);
            }
            for (auto &e : v)
                (*this)(name, e);
        } else {
            std::string inner;
            ok = r.getString(inner) && parse(inner, v);
        }
    }
};

/** `run()`'s stats, served from the enabled global store under `key`
 * when a valid record exists, else computed and recorded. */
template <class Stats, class Run>
Stats
cachedRun(const std::string &key, Run run)
{
    ResultStore &rs = resultStore();
    std::string payload;
    Stats out;
    if (rs.lookup(key, payload) && PayloadReader::parse(payload, out))
        return out;
    out = run();
    rs.store(key, PayloadWriter::of(out));
    return out;
}

/** Unique-enough temp suffix: pid + a process-wide counter, so
 * concurrent writers (threads or processes) never share a temp file. */
std::string
tempSuffix()
{
    static std::atomic<std::uint64_t> seq{0};
    return csprintf(".tmp.%d.%llu", static_cast<int>(::getpid()),
                    static_cast<unsigned long long>(
                        seq.fetch_add(1, std::memory_order_relaxed)));
}

} // namespace

// ----------------------------------------------------------------------
// Keys.
// ----------------------------------------------------------------------
std::string
resultKey(const MachineConfig &machine, const WorkloadParams &workload)
{
    std::string key = "grs-key-v1:single;";
    key.reserve(1536);
    KeyWriter write{key};
    write("machine", machine);
    write("workload", workload);
    return key;
}

std::string
resultKey(const ChipConfig &chip,
          const std::vector<WorkloadParams> &workloads)
{
    std::string key = "grs-key-v1:chip;";
    key.reserve(768 + 1024 * workloads.size());
    KeyWriter write{key};
    // The machine block leads; the chip block holds the rest.
    write("machine", chip.machine);
    key += "chip{";
    forEachField(chip, [&](const char *name, const auto &v) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                      MachineConfig>)
            write(name, v);
    });
    key += '}';
    for (const WorkloadParams &wl : workloads)
        write("workload", wl);
    return key;
}

// ----------------------------------------------------------------------
// Payloads.
// ----------------------------------------------------------------------
std::string
serializeRunStats(const RunStats &stats)
{
    return PayloadWriter::of(stats);
}

bool
deserializeRunStats(const std::string &bytes, RunStats &out)
{
    return PayloadReader::parse(bytes, out);
}

std::string
serializeChipRunStats(const ChipRunStats &stats)
{
    return PayloadWriter::of(stats);
}

bool
deserializeChipRunStats(const std::string &bytes, ChipRunStats &out)
{
    return PayloadReader::parse(bytes, out);
}

// ----------------------------------------------------------------------
// Store.
// ----------------------------------------------------------------------
bool
ResultStore::open(const std::string &dir,
                  const std::string &version_tag)
{
    close();
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec || !fs::is_directory(dir)) {
        warn("result cache directory \"%s\" cannot be created (%s); "
             "result cache disabled",
             dir.c_str(), ec ? ec.message().c_str() : "not a directory");
        return false;
    }
    // Probe writability now, so an unwritable directory costs one
    // warning instead of one per record.
    std::string probe =
        (fs::path(dir) / ("probe" + tempSuffix())).string();
    {
        std::ofstream out(probe, std::ios::binary);
        if (!out) {
            warn("result cache directory \"%s\" is not writable; "
                 "result cache disabled",
                 dir.c_str());
            return false;
        }
    }
    fs::remove(probe, ec);
    dir_ = fs::absolute(dir).string();
    tag_ = version_tag;
    return true;
}

void
ResultStore::close()
{
    dir_.clear();
    tag_ = kResultStoreVersion;
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    stores_.store(0, std::memory_order_relaxed);
    rejects_.store(0, std::memory_order_relaxed);
    write_warned_.store(false, std::memory_order_relaxed);
}

std::string
ResultStore::recordPath(const std::string &key) const
{
    std::string name =
        csprintf("%016llx%016llx.grs",
                 static_cast<unsigned long long>(
                     fnv1a(key.data(), key.size(), kFnvBasisA)),
                 static_cast<unsigned long long>(
                     fnv1a(key.data(), key.size(), kFnvBasisB)));
    return (fs::path(dir_) / name).string();
}

bool
ResultStore::lookup(const std::string &key, std::string &payload) const
{
    if (!enabled())
        return false;

    // One sized read straight into the buffer: the stream-insertion
    // idiom (rdbuf into an ostringstream, then str()) copied every
    // record twice through chunked virtual calls, which dominated
    // the warm-sweep hit path.
    auto miss = [&] {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    };
    std::string bytes;
    {
        std::ifstream in(recordPath(key),
                         std::ios::binary | std::ios::ate);
        std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
        if (size < 0)
            return miss();
        bytes.resize(static_cast<std::size_t>(size));
        in.seekg(0);
        in.read(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
        if (!in)
            return miss();
    }

    // Validate everything; any failure is a reject (recompute, never
    // trust). The checksum covers every byte before it, so a
    // truncated or bit-flipped record cannot pass.
    auto reject = [&] {
        rejects_.fetch_add(1, std::memory_order_relaxed);
        return miss();
    };
    if (bytes.size() < 8)
        return reject();
    std::uint64_t want = 0;
    {
        ByteReader tail{bytes};
        tail.off = bytes.size() - 8;
        tail.get(want);
    }
    if (fnv1a(bytes.data(), bytes.size() - 8, kFnvBasisA) != want)
        return reject();

    ByteReader r{bytes};
    std::uint32_t magic = 0;
    std::string tag, stored_key;
    if (!r.get(magic) || magic != kMagic || !r.getString(tag) ||
        !r.getString(stored_key) || !r.getString(payload) ||
        r.off + 8 != bytes.size()) {
        return reject();
    }
    if (tag != tag_ || stored_key != key)
        return reject(); // stale code version or hash collision.

    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ResultStore::store(const std::string &key,
                   const std::string &payload) const
{
    if (!enabled())
        return;

    std::string bytes;
    put(bytes, kMagic);
    putString(bytes, tag_);
    putString(bytes, key);
    putString(bytes, payload);
    put(bytes, fnv1a(bytes.data(), bytes.size(), kFnvBasisA));

    // Atomic publish: write a private temp file, then rename() onto
    // the record name. Readers either see the old record or the new
    // complete one; racing writers publish identical bytes (the
    // payload is a deterministic function of the key), so last-wins
    // is harmless.
    std::string final_path = recordPath(key);
    std::string tmp_path = final_path + tempSuffix();
    bool ok = false;
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (out) {
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
            ok = out.good();
        }
    }
    std::error_code ec;
    if (ok) {
        fs::rename(tmp_path, final_path, ec);
        ok = !ec;
    }
    if (!ok) {
        fs::remove(tmp_path, ec);
        if (!write_warned_.exchange(true, std::memory_order_relaxed)) {
            warn("result cache write to \"%s\" failed; caching "
                 "continues best-effort",
                 dir_.c_str());
        }
        return;
    }
    stores_.fetch_add(1, std::memory_order_relaxed);
}

ResultStore::Counters
ResultStore::counters() const
{
    Counters c;
    c.hits = hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.stores = stores_.load(std::memory_order_relaxed);
    c.rejects = rejects_.load(std::memory_order_relaxed);
    return c;
}

void
ResultStore::publishMetrics() const
{
    Counters c = counters();
    obs::MetricsRegistry &m = obs::MetricsRegistry::instance();
    m.set("result_store.enabled", enabled() ? 1 : 0);
    m.set("result_store.hits", c.hits);
    m.set("result_store.misses", c.misses);
    m.set("result_store.stores", c.stores);
    m.set("result_store.rejects", c.rejects);
}

std::string
ResultStore::statsLine() const
{
    // The human-facing stderr line doubles as the fold point into
    // the machine-readable registry: every caller that reports the
    // store's telemetry keeps the GALS_METRICS file current.
    publishMetrics();
    Counters c = counters();
    return csprintf("result-store: %llu hits, %llu misses "
                    "(%llu rejected records), %llu stored, dir %s",
                    static_cast<unsigned long long>(c.hits),
                    static_cast<unsigned long long>(c.misses),
                    static_cast<unsigned long long>(c.rejects),
                    static_cast<unsigned long long>(c.stores),
                    dir_.c_str());
}

// ----------------------------------------------------------------------
// Global store.
// ----------------------------------------------------------------------
ResultStore &
resultStore()
{
    static ResultStore store;
    return store;
}

void
configureResultStore(const std::string &dir)
{
    if (dir.empty())
        resultStore().close();
    else
        resultStore().open(dir);
}

// ----------------------------------------------------------------------
// Cached simulation wrappers.
// ----------------------------------------------------------------------
RunStats
cachedSimulate(const MachineConfig &machine,
               const WorkloadParams &workload)
{
    auto run = [&] { return simulate(machine, workload); };
    if (!resultStore().enabled())
        return run();
    return cachedRun<RunStats>(resultKey(machine, workload), run);
}

ChipRunStats
cachedChipRun(const ChipConfig &chip,
              const std::vector<WorkloadParams> &workloads)
{
    auto run = [&] { return Chip(chip, workloads).run(); };
    if (!resultStore().enabled())
        return run();
    return cachedRun<ChipRunStats>(resultKey(chip, workloads), run);
}

} // namespace gals
