#include "harness.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <stdexcept>

namespace perfbench
{

namespace
{

/** Strict decimal parse of a whole string into [lo, hi]. */
std::optional<std::uint64_t>
parseUnsigned(const std::string &text, std::uint64_t lo, std::uint64_t hi)
{
    if (text.empty() || text.size() > 20)
        return std::nullopt;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

} // namespace

std::optional<Options>
parseArgs(const std::vector<std::string> &args, std::string &error)
{
    Options o;
    bool have_workload = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--setup-only") {
            o.setup_only = true;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" &&
            flag != "--out-dir") {
            error = "unknown argument '" + flag + "'";
            return std::nullopt;
        }
        if (i + 1 >= args.size()) {
            error = flag + " needs a value";
            return std::nullopt;
        }
        const std::string &val = args[++i];
        if (flag == "--workload") {
            if (std::find(kWorkloads.begin(), kWorkloads.end(), val) ==
                kWorkloads.end()) {
                error = "unknown workload '" + val + "'";
                return std::nullopt;
            }
            o.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            auto v = parseUnsigned(
                val, 0, std::numeric_limits<std::uint64_t>::max());
            if (!v) {
                error = "--seed must be a decimal integer in "
                        "[0, 2^64-1], got '" + val + "'";
                return std::nullopt;
            }
            o.seed = *v;
        } else if (flag == "--seconds") {
            auto v = parseUnsigned(val, 1, 3600);
            if (!v) {
                error = "--seconds must be an integer in [1, 3600], "
                        "got '" + val + "'";
                return std::nullopt;
            }
            o.seconds = static_cast<int>(*v);
        } else if (flag == "--trace") {
            if (val != "0" && val != "1") {
                error = "--trace must be 0 or 1, got '" + val + "'";
                return std::nullopt;
            }
            o.trace = val == "1";
        } else {
            if (val.empty()) {
                error = "--out-dir must not be empty";
                return std::nullopt;
            }
            o.out_dir = val;
        }
    }
    if (!have_workload) {
        error = "--workload is required";
        return std::nullopt;
    }
    if (o.out_dir.empty()) {
        error = "--out-dir is required";
        return std::nullopt;
    }
    return o;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    // VmHWM belongs to this process image. getrusage's ru_maxrss is
    // not used: Linux carries it across execve, so it would report the
    // launching interpreter's peak when that was larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    // Nearest rank: the ceil(p*n)-th smallest sample (1-based).
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

std::optional<double>
tailPercentile(std::vector<double> v, double p)
{
    const std::size_t beyond = samplesBeyond(v.size(), p);
    if (beyond < kMinBeyond)
        return std::nullopt;
    std::sort(v.begin(), v.end());
    return v[v.size() - beyond - 1];
}

int
SpanLog::open(const char *name, int parent, long leaf)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.leaf = leaf;
    s.start_ns = nowNs();
    return add(s);
}

void
SpanLog::close(int id)
{
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
}

int
SpanLog::add(const Span &s)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    // Children's intervals, clipped to their parent.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        std::int64_t a = std::max(s.start_ns, p.start_ns);
        std::int64_t b = std::min(s.end_ns, p.end_ns);
        if (a < b)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = spans[i].durationNs() - covered;
    }
    return self;
}

std::vector<double>
durationsMs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (name == s.name)
            out.push_back(static_cast<double>(s.durationNs()) * 1e-6);
    }
    return out;
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                     "%" PRId64 ", \"end_ns\": %" PRId64
                     ", \"parent\": %d, \"leaf\": %ld, \"self_ns\": "
                     "%" PRId64 "}%s\n",
                     i, s.name, s.start_ns, s.end_ns, s.parent, s.leaf,
                     self[i], i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
remixSeed(std::uint64_t base, std::uint64_t seed)
{
    if (seed == 0)
        return base;
    // splitmix64 finalizer over the pair.
    std::uint64_t z = base ^ (seed * 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

const std::vector<MetricSpec> kEndToEnd = {
    {"wall_s", "s"},
    {"sim_ips", "instr/cpu-s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"leaf_ms_p50", "ms"},
    {"leaf_ms_p90", "ms"},
    {"leaf_samples", "count"},
    {"warm_s", "s"},
    {"fig6_err_pts", "pct-points"},
    {"workload.gen_ns_per_op", "ns/op"},
    {"workload.ops", "count"},
    {"predictor.ns_per_branch", "ns/branch"},
    {"predictor.mispredict_ratio", "ratio"},
    {"cache.l1d_ns_per_access", "ns/access"},
    {"cache.l1i_ns_per_access", "ns/access"},
    {"cache.a_hit_ratio", "ratio"},
    {"cache.b_hit_ratio", "ratio"},
    {"cache.miss_ratio", "ratio"},
    {"cache.l2_ns_per_access", "ns/access"},
    {"core.host_ns_per_instr.sync", "ns/instr"},
    {"core.host_ns_per_instr.program", "ns/instr"},
    {"core.host_ns_per_instr.phase", "ns/instr"},
    {"core.self_ns_per_instr", "ns/instr"},
    {"cmp.host_ns_per_instr.c4", "ns/instr"},
    {"cmp.host_ns_per_instr.c8", "ns/instr"},
    {"cmp.host_ns_per_instr.c16", "ns/instr"},
    {"cmp.construct_ms", "ms"},
    {"cmp.bank_conflicts_per_kinstr", "1/kinstr"},
    {"cmp.bank_mshr_waits_per_kinstr", "1/kinstr"},
    {"cmp.fill_merges_per_kinstr", "1/kinstr"},
    {"cmp.invalidations_per_kinstr", "1/kinstr"},
    {"cmp.ownership_transfers_per_kinstr", "1/kinstr"},
    {"cmp.l2_miss_ratio", "ratio"},
    {"sweep.leaf_runs", "count"},
    {"sweep.parallel_eff", "ratio"},
    {"sweep.row_ms_p50", "ms"},
    {"sweep.row_ms_max", "ms"},
    {"store.key_us", "us"},
    {"store.lookup_us_p50", "us"},
    {"store.write_us_p50", "us"},
    {"store.record_bytes", "bytes"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.rejects", "count"},
    {"setup.suite_ms", "ms"},
    {"setup.config_us", "us"},
    {"setup.pool_ms", "ms"},
    {"model.ipns", "instr/ns"},
    {"model.l1i_miss_ratio", "ratio"},
    {"model.l1d_miss_ratio", "ratio"},
    {"model.l2_miss_ratio", "ratio"},
    {"model.mispredict_ratio", "ratio"},
    {"model.relocks_per_minstr", "1/Minstr"},
    {"model.reconfigs_per_minstr", "1/Minstr"},
    {"bench.trace_overhead", "ratio"},
};

void
Report::set(const std::string &name, double value)
{
    auto known = [&](const std::vector<MetricSpec> &specs) {
        return std::any_of(specs.begin(), specs.end(),
                           [&](const MetricSpec &s) {
                               return name == s.name;
                           });
    };
    if (!known(kEndToEnd) && !known(kPerLayer))
        throw std::logic_error("unlisted metric " + name);
    // Non-finite figures (empty denominators) are not measurements.
    if (!std::isfinite(value))
        value = 0.0;
    for (auto &[n, v] : values_) {
        if (n == name) {
            v = value;
            return;
        }
    }
    values_.emplace_back(name, value);
}

double
Report::get(const std::string &name) const
{
    for (const auto &[n, v] : values_) {
        if (n == name)
            return v;
    }
    return 0.0;
}

std::string
Report::json(const std::vector<MetricSpec> &specs) const
{
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed);
    char buf[96];
    std::snprintf(buf, sizeof buf, ", \"stats_digest\": \"%016" PRIx64
                  "\", \"setup_s\": %.17g",
                  digest, setup_s);
    out += buf;
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", get(specs[i].name));
        out += std::string(i ? ", \"" : "\"") + specs[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               specs[i].unit + "\"}";
    }
    return out + "}}";
}

void
setLeafTimes(const std::vector<double> &ms, Report &r)
{
    if (ms.empty())
        return;
    r.set("leaf_ms_p50", median(ms));
    r.set("leaf_samples", static_cast<double>(ms.size()));
    if (std::optional<double> p90 = tailPercentile(ms, 0.9)) {
        r.set("leaf_ms_p90", *p90);
    } else {
        std::fprintf(stderr,
                     "perfbench: leaf_ms_p90 not reported: n=%zu, %zu "
                     "samples beyond p90 (needs %zu)\n",
                     ms.size(), samplesBeyond(ms.size(), 0.9),
                     kMinBeyond);
    }
}

} // namespace perfbench
