#include "sim/report.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/table.hh"
#include "timing/frequency_model.hh"

namespace gals
{

std::string
studyJson(const StudyResult &study)
{
    std::string out = "{\n";
    out += "  \"sweep\": \"study\",\n";
    out += csprintf("  \"mode\": \"%s\",\n",
                    study.mode == SweepMode::Exhaustive ? "exhaustive"
                                                        : "staged");
    out += csprintf("  \"benchmarks\": %zu,\n",
                    study.benchmarks.size());
    out += "  \"rows\": [\n";
    for (size_t i = 0; i < study.benchmarks.size(); ++i) {
        const BenchmarkResult &r = study.benchmarks[i];
        out += csprintf(
            "    {\"index\": %zu, \"name\": \"%s\", \"suite\": "
            "\"%s\", \"sync_ns\": %.17g, \"program_ns\": %.17g, "
            "\"phase_ns\": %.17g, \"cfg\": \"%s\", \"runs\": %llu}",
            i, r.name.c_str(), r.suite.c_str(), r.sync_ns,
            r.program_ns, r.phase_ns, r.program_cfg.str().c_str(),
            static_cast<unsigned long long>(r.runs));
        out += i + 1 < study.benchmarks.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
syncSweepJson(const std::vector<SyncPointRuntimes> &rows,
              size_t suite_size, bool full)
{
    std::string out = "{\n";
    out += "  \"sweep\": \"synchronous\",\n";
    out += csprintf("  \"full\": %s,\n", full ? "true" : "false");
    out += csprintf("  \"benchmarks\": %zu,\n", suite_size);
    out += "  \"rows\": [\n";
    for (size_t k = 0; k < rows.size(); ++k) {
        const SyncPointRuntimes &r = rows[k];
        out += csprintf("    {\"index\": %zu, \"icache_opt\": %d, "
                        "\"dcache\": %d, \"iq_int\": %d, "
                        "\"iq_fp\": %d, \"runtime_ns\": [",
                        k, r.icache_opt, r.dcache,
                        r.iq_int, r.iq_fp);
        for (size_t b = 0; b < r.runtime_ns.size(); ++b) {
            out += csprintf("%s%.17g", b == 0 ? "" : ", ",
                            r.runtime_ns[b]);
        }
        out += k + 1 < rows.size() ? "]},\n" : "]}\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
adaptiveSweepJson(const std::vector<AdaptivePointRuntime> &rows,
                  const std::string &benchmark)
{
    std::string out = "{\n";
    out += "  \"sweep\": \"adaptive\",\n";
    out += csprintf("  \"benchmark\": \"%s\",\n", benchmark.c_str());
    out += csprintf("  \"points\": %zu,\n",
                    allAdaptiveConfigs().size());
    out += "  \"rows\": [\n";
    for (size_t k = 0; k < rows.size(); ++k) {
        const AdaptivePointRuntime &r = rows[k];
        out += csprintf("    {\"index\": %zu, \"cfg\": \"%s\", "
                        "\"runtime_ns\": %.17g}%s\n",
                        k, r.cfg.str().c_str(),
                        r.runtime_ns,
                        k + 1 < rows.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
}

std::string
cmpSweepJson(const std::vector<CmpPointResult> &rows, size_t suite_size,
             const std::vector<int> &core_counts)
{
    std::string out = "{\n";
    out += "  \"sweep\": \"cmp\",\n";
    out += csprintf("  \"benchmarks\": %zu,\n", suite_size);
    out += "  \"core_counts\": [";
    for (size_t i = 0; i < core_counts.size(); ++i) {
        out += csprintf("%s%d", i == 0 ? "" : ", ", core_counts[i]);
    }
    out += "],\n";
    out += "  \"rows\": [\n";
    for (size_t k = 0; k < rows.size(); ++k) {
        const CmpPointResult &r = rows[k];
        out += csprintf("    {\"index\": %zu, \"cores\": %d, "
                        "\"rotation\": %d, \"chip_ns\": %.17g, "
                        "\"l2_misses\": %llu, "
                        "\"bank_conflicts\": %llu, \"core_ns\": [",
                        k, r.cores, r.rotation, r.chip_ns,
                        static_cast<unsigned long long>(r.l2_misses),
                        static_cast<unsigned long long>(
                            r.bank_conflicts));
        for (size_t c = 0; c < r.core_ns.size(); ++c) {
            out += csprintf("%s%.17g", c == 0 ? "" : ", ",
                            r.core_ns[c]);
        }
        out += k + 1 < rows.size() ? "]},\n" : "]}\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
renderCmpSummary(const std::vector<CmpPointResult> &rows)
{
    TextTable table("Chip multiprocessor scaling: multiprogrammed "
                    "mixes over the suite, per core count");
    table.setHeader({"cores", "mixes", "avg makespan", "avg L2 miss",
                     "avg bank conflicts"});
    // Rows arrive grouped by core count (point order).
    size_t i = 0;
    while (i < rows.size()) {
        int cores = rows[i].cores;
        size_t n = 0;
        double ns = 0.0;
        double misses = 0.0;
        double conflicts = 0.0;
        for (; i < rows.size() && rows[i].cores == cores; ++i, ++n) {
            ns += rows[i].chip_ns;
            misses += static_cast<double>(rows[i].l2_misses);
            conflicts +=
                static_cast<double>(rows[i].bank_conflicts);
        }
        double dn = static_cast<double>(n);
        table.addRow({csprintf("%d", cores), csprintf("%zu", n),
                      csprintf("%.0f ns", ns / dn),
                      csprintf("%.0f", misses / dn),
                      csprintf("%.0f", conflicts / dn)});
    }
    return table.render();
}

std::string
renderFigure6(const StudyResult &study)
{
    TextTable table(
        "Figure 6: performance improvement of Program- and "
        "Phase-Adaptive MCD over the best fully synchronous design");
    table.setHeader({"benchmark", "suite", "program", "phase",
                     "program cfg"});
    std::string cur_suite;
    for (const BenchmarkResult &r : study.benchmarks) {
        if (!cur_suite.empty() && r.suite != cur_suite)
            table.addRule();
        cur_suite = r.suite;
        table.addRow({r.name, r.suite,
                      csprintf("%+6.1f%%",
                               100.0 * r.programImprovement()),
                      csprintf("%+6.1f%%", 100.0 * r.phaseImprovement()),
                      r.program_cfg.str()});
    }
    table.addRule();
    table.addRow({"AVERAGE", "",
                  csprintf("%+6.1f%%",
                           100.0 * study.avgProgramImprovement()),
                  csprintf("%+6.1f%%",
                           100.0 * study.avgPhaseImprovement()),
                  ""});

    std::string out = table.render();
    out += "\n";

    std::vector<std::string> labels;
    std::vector<double> values;
    for (const BenchmarkResult &r : study.benchmarks) {
        labels.push_back(r.name + " [P]");
        values.push_back(100.0 * r.programImprovement());
        labels.push_back(r.name + " [F]");
        values.push_back(100.0 * r.phaseImprovement());
    }
    out += renderBarChart(
        "Improvement over best synchronous (%), [P]=Program-Adaptive "
        "[F]=Phase-Adaptive",
        labels, values, 50.0, 50, "%");
    return out;
}

std::string
renderTable9(const StudyResult &study)
{
    int n = static_cast<int>(study.benchmarks.size());
    if (n == 0)
        return "(empty study)\n";

    auto pct = [n](int count) {
        return csprintf("%d%%", (100 * count + n / 2) / n);
    };

    TextTable table("Table 9: distribution of adaptive architecture "
                    "choices for Program-Adaptive");
    table.setHeader({"Integer IQ", "%", "FP IQ", "%", "D-Cache", "%",
                     "I-Cache", "%"});
    const Structure columns[] = {Structure::IntIssueQueue,
                                 Structure::FpIssueQueue,
                                 Structure::DCachePair, Structure::ICache};
    for (int k = 0; k < kNumAdaptiveConfigs; ++k) {
        std::vector<std::string> row;
        for (Structure s : columns) {
            row.push_back(configLabel(s, k));
            row.push_back(
                pct(study.distribution(s)[static_cast<size_t>(k)]));
        }
        table.addRow(std::move(row));
    }
    return table.render();
}

std::string
configLabel(Structure s, int index)
{
    switch (s) {
      case Structure::ICache:     return icacheConfig(index).name;
      case Structure::DCachePair: return dcachePairConfig(index).name;
      case Structure::IntIssueQueue:
      case Structure::FpIssueQueue:
        return std::to_string(kIssueQueueSizes[index]);
    }
    panic("bad structure");
}

std::string
renderReconfigTrace(const std::string &title, const ReconfigTrace &trace,
                    Structure s, int initial_index,
                    std::uint64_t total_instrs)
{
    std::vector<std::string> labels;
    for (int k = 0; k < kNumAdaptiveConfigs; ++k)
        labels.push_back(configLabel(s, k));

    // Build the step function config(instrs) from the event log.
    std::vector<ReconfigEvent> events = trace.eventsFor(s);

    std::string out = title + "\n";
    constexpr int kBuckets = 64;
    std::uint64_t bucket =
        std::max<std::uint64_t>(1, total_instrs / kBuckets);

    // For each level (highest first), draw a row marking the buckets
    // in which that configuration was active.
    std::vector<int> level_at(kBuckets, initial_index);
    {
        int cur = initial_index;
        size_t e = 0;
        for (int b = 0; b < kBuckets; ++b) {
            std::uint64_t instrs = static_cast<std::uint64_t>(b) *
                                   bucket;
            while (e < events.size() &&
                   events[e].committed_instrs <= instrs) {
                cur = events[e].to_index;
                ++e;
            }
            level_at[static_cast<size_t>(b)] = cur;
        }
    }

    size_t label_w = 0;
    for (const std::string &l : labels)
        label_w = std::max(label_w, l.size());

    for (int lvl = static_cast<int>(labels.size()) - 1; lvl >= 0;
         --lvl) {
        const std::string &label = labels[static_cast<size_t>(lvl)];
        std::string line = "  " + label;
        line.append(label_w - label.size(), ' ');
        line += " |";
        for (int b = 0; b < kBuckets; ++b) {
            line += level_at[static_cast<size_t>(b)] == lvl ? '#' : ' ';
        }
        line += "|";
        out += line + "\n";
    }
    out += csprintf("  %*s +%s+\n", static_cast<int>(label_w), "",
                    std::string(kBuckets, '-').c_str());
    out += csprintf("  %*s 0 ... %llu committed instructions "
                    "(%d reconfigurations)\n",
                    static_cast<int>(label_w), "",
                    static_cast<unsigned long long>(total_instrs),
                    static_cast<int>(events.size()));
    return out;
}

} // namespace gals
