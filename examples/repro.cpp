/**
 * @file
 * Paper reproduction driver: prints the paper's tables and figures in
 * paper order and writes the fidelity scorecard.
 *
 * Usage: repro [--json FILE] [SECTION...]
 *
 * With no SECTION every section runs, else only the named ones (still
 * in paper order; see kSections). `--json FILE` also writes one row
 * per headline number, ours beside the paper's value where a section
 * banner cites one, as line-oriented JSON. BENCH_fidelity.json is that
 * file over every section; the fidelity_scorecard test requires it to
 * regenerate byte for byte (docs/testing.md, "Fidelity scorecard").
 * An unknown section or an unwritable FILE fails before any simulation.
 *
 * The Program-Adaptive search is always staged and the synchronous
 * search the 64-point cross; `sweep_cli --mode study --full` and
 * `sweep_cli --mode sync --full` run the exhaustive ones.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/machine_config.hh"
#include "sim/report.hh"
#include "sim/simulation.hh"
#include "sim/study.hh"
#include "sim/sweep.hh"
#include "timing/frequency_model.hh"
#include "timing/gate_cost.hh"
#include "timing/palacharla_model.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

/**
 * The paper values the section banners cite, by scorecard row, as
 * JSON text: a number, or a string for a bound or a label.
 */
const std::map<std::string, std::string> kPaper = {
    {"fig2.adaptive_optimal_gap_pct", "5"},
    {"fig3.dm_to_2way_drop_pct", "31"},
    {"fig3.optimal_64k_dm_over_adaptive_pct", "27"},
    {"table4.decision_cycles", "32"},
    {"table4.two_controller_gates", "10000"},
    {"best_sync.winner", "\"64k1W + 32k1W/256k1W + 16/16\""},
    {"ablation_sync_cost.avg_slowdown_pct", "\"<3\""},
    {"fig6.program_avg_pct.all", "17.6"},
    {"fig6.phase_avg_pct.all", "20.4"},
    {"fig6.phase_minus_program_pts", "2.8"}, // 20.4 - 17.6
};

/** Scorecard rows, rendered as JSON objects, in emission order. */
std::vector<std::string> g_rows;

/** Record one scorecard row; `ours` is JSON text: num() or a label. */
void
score(const std::string &row, const std::string &ours,
      const char *source)
{
    auto paper = kPaper.find(row);
    g_rows.push_back(csprintf(
        "{\"row\": \"%s\", \"ours\": %s, \"paper\": %s, "
        "\"source\": \"%s\"}",
        row.c_str(), ours.c_str(),
        paper == kPaper.end() ? "null" : paper->second.c_str(), source));
}

/** A scorecard number as JSON text. */
std::string
num(double v)
{
    return csprintf("%.6g", v);
}

/** Banner naming a section's experiment and its paper reference. */
void
banner(const char *experiment, const char *paper_note)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s\n", experiment);
    std::printf("paper reference: %s\n", paper_note);
    std::printf("==================================================="
                "=========================\n");
}

void
table1Fig2()
{
    banner("Table 1 + Figure 2: L1 data / L2 cache configurations "
           "and frequencies",
           "paper Section 2.1, Table 1, Figure 2");

    TextTable t("Table 1: L1 data and L2 cache configurations");
    t.setHeader({"L1-D size", "assoc", "sb adapt", "sb opt", "L2 size",
                 "sb adapt", "sb opt", "A/B lat L1", "A/B lat L2"});
    for (int i = 0; i < kNumAdaptiveConfigs; ++i) {
        const DCachePairConfig &c = dcachePairConfig(i);
        auto lat = [](int a, int b) {
            return b >= 0 ? csprintf("%d/%d", a, b)
                          : csprintf("%d/-", a);
        };
        t.addRow({csprintf("%llu KB",
                           static_cast<unsigned long long>(
                               c.l1_adapt.size_bytes / 1024)),
                  csprintf("%d", c.l1_adapt.assoc),
                  csprintf("%d", c.l1_adapt.subbanks),
                  csprintf("%d", c.l1_opt.subbanks),
                  csprintf("%llu KB",
                           static_cast<unsigned long long>(
                               c.l2_adapt.size_bytes / 1024)),
                  csprintf("%d", c.l2_adapt.subbanks),
                  csprintf("%d", c.l2_opt.subbanks),
                  lat(c.l1_a_lat, c.l1_b_lat),
                  lat(c.l2_a_lat, c.l2_b_lat)});
    }
    t.print();
    std::printf("\n");

    std::vector<std::string> labels;
    std::vector<double> values;
    for (int i = 0; i < kNumAdaptiveConfigs; ++i) {
        const DCachePairConfig &c = dcachePairConfig(i);
        labels.push_back(c.name + " adaptive");
        values.push_back(c.freq_adaptive_ghz);
        labels.push_back(c.name + " optimal");
        values.push_back(c.freq_optimal_ghz);
    }
    std::printf("%s\n",
                renderBarChart(
                    "Figure 2: D-cache/L2 frequency vs configuration "
                    "(GHz)",
                    labels, values, 1.8, 44, " GHz")
                    .c_str());

    double gap =
        dcachePairConfig(3).freq_optimal_ghz /
            dcachePairConfig(3).freq_adaptive_ghz - 1.0;
    std::printf("adaptive-vs-optimal gap at largest config: %.1f%% "
                "(paper: ~5%%)\n\n",
                100.0 * gap);
    score("fig2.adaptive_optimal_gap_pct", num(100.0 * gap),
          "Section 2.1, Figure 2");
}

std::vector<std::string>
predictorRow(const PredictorOrg &p)
{
    return {csprintf("%d bits", p.gshare_hist_bits),
            csprintf("%d", p.gshare_entries),
            csprintf("%d", p.meta_entries),
            csprintf("%d bits", p.local_hist_bits),
            csprintf("%d", p.local_bht_entries),
            csprintf("%d", p.local_pht_entries)};
}

void
tables2And3Fig3()
{
    banner("Tables 2 and 3 + Figure 3: I-cache / branch predictor "
           "configurations",
           "paper Section 2.2, Tables 2-3, Figure 3");

    TextTable t2("Table 2: adaptive I-cache / branch predictor "
                 "configurations");
    t2.setHeader({"size", "assoc", "sub-banks", "hg", "gshare PHT",
                  "meta", "hl", "local BHT", "local PHT", "GHz"});
    for (int i = 0; i < kNumAdaptiveConfigs; ++i) {
        const ICacheConfig &c = icacheConfig(i);
        std::vector<std::string> row = {
            csprintf("%llu KB", static_cast<unsigned long long>(
                                    c.org.size_bytes / 1024)),
            csprintf("%d", c.org.assoc),
            csprintf("%d", c.org.subbanks)};
        for (auto &cell : predictorRow(c.predictor))
            row.push_back(cell);
        row.push_back(csprintf("%.3f", c.freq_ghz));
        t2.addRow(row);
    }
    t2.print();
    std::printf("\n");

    TextTable t3("Table 3: optimized synchronous I-cache / predictor "
                 "configurations");
    t3.setHeader({"size", "assoc", "sub-banks", "hg", "gshare PHT",
                  "meta", "hl", "local BHT", "local PHT", "GHz"});
    for (int i = 0; i < kNumOptICacheConfigs; ++i) {
        const OptICacheConfig &c = optICacheConfig(i);
        std::vector<std::string> row = {
            csprintf("%llu KB", static_cast<unsigned long long>(
                                    c.org.size_bytes / 1024)),
            csprintf("%d", c.org.assoc),
            csprintf("%d", c.org.subbanks)};
        for (auto &cell : predictorRow(c.predictor))
            row.push_back(cell);
        row.push_back(csprintf("%.3f", c.freq_ghz));
        t3.addRow(row);
    }
    t3.print();
    std::printf("\n");

    // Figure 3: adaptive curve vs best direct-mapped optimal curve at
    // the same total sizes.
    std::vector<std::string> labels;
    std::vector<double> values;
    const int opt_dm[4] = {2, 3, 14, 4}; // 16k1W, 32k1W, 48k3W, 64k1W.
    for (int i = 0; i < kNumAdaptiveConfigs; ++i) {
        const ICacheConfig &c = icacheConfig(i);
        labels.push_back(c.name + " adaptive");
        values.push_back(c.freq_ghz);
        const OptICacheConfig &o = optICacheConfig(opt_dm[i]);
        labels.push_back(o.name + " optimal");
        values.push_back(o.freq_ghz);
    }
    std::printf("%s\n",
                renderBarChart("Figure 3: I-cache frequency vs "
                               "configuration (GHz)",
                               labels, values, 1.8, 44, " GHz")
                    .c_str());

    double drop = 100.0 * (1.0 - icacheConfig(1).freq_ghz /
                                     icacheConfig(0).freq_ghz);
    double opt_gain = 100.0 * (optICacheConfig(4).freq_ghz /
                                   icacheConfig(3).freq_ghz - 1.0);
    std::printf("direct-mapped -> 2-way frequency drop: %.1f%% "
                "(paper: ~31%%)\n",
                drop);
    std::printf("optimal 64KB DM vs adaptive 64KB 4-way: +%.1f%% "
                "(paper: ~27%%)\n\n",
                opt_gain);
    score("fig3.dm_to_2way_drop_pct", num(drop), "Section 2.2, Figure 3");
    score("fig3.optimal_64k_dm_over_adaptive_pct", num(opt_gain),
          "Section 2.2, Figure 3");
}

void
fig4()
{
    banner("Figure 4: issue queue frequency analysis",
           "paper Section 2.3, Figure 4");

    IssueQueueTiming timing;
    std::vector<std::string> labels;
    std::vector<double> values;
    TextTable t("Issue-queue timing (Palacharla-style model)");
    t.setHeader({"entries", "select levels", "wakeup ns", "select ns",
                 "cycle ns", "GHz"});
    for (int n = 16; n <= 64; n += 4) {
        t.addRow({csprintf("%d", n),
                  csprintf("%d", IssueQueueTiming::selectionLevels(n)),
                  csprintf("%.3f", timing.wakeupNs(n)),
                  csprintf("%.3f", timing.selectNs(n)),
                  csprintf("%.3f", timing.cycleNs(n)),
                  csprintf("%.3f", issueQueueFreqGHzForEntries(n))});
        labels.push_back(csprintf("%2d entries", n));
        values.push_back(issueQueueFreqGHzForEntries(n));
    }
    t.print();
    std::printf("\n%s\n",
                renderBarChart("Figure 4: issue queue frequency (GHz)",
                               labels, values, 1.6, 44, " GHz")
                    .c_str());
    double cliff = 100.0 * (1.0 - issueQueueFreqGHzForEntries(20) /
                                      issueQueueFreqGHzForEntries(16));
    std::printf("16 -> 20 entry cliff: %.1f%% (2 -> 3 selection "
                "levels)\n\n",
                cliff);
    score("fig4.cliff_16_to_20_pct", num(cliff), "Section 2.3, Figure 4");
}

void
table4()
{
    banner("Table 4: hardware cost of the phase-adaptive cache "
           "controller",
           "paper Section 3.1, Table 4");

    GateCostModel model;
    TextTable t("Table 4: estimate of hardware resources (per "
                "adaptable cache / cache pair)");
    t.setHeader({"Component", "Estimate", "Equivalent Gates"});
    for (const GateCostRow &row : model.rows()) {
        t.addRow({row.component, row.estimate,
                  csprintf("%d", row.equivalent_gates)});
    }
    t.addRule();
    t.addRow({"Total", "", csprintf("%d", model.totalGates())});
    t.print();

    std::printf("\nreconfiguration decision latency: %d cycles "
                "(paper: ~32)\n",
                model.decisionCycles());
    std::printf("two controllers (I-cache, L1/L2 pair): ~%d gates "
                "total (paper: ~10K)\n\n",
                2 * model.totalGates());
    score("table4.decision_cycles", num(model.decisionCycles()),
          "Section 3.1, Table 4");
    score("table4.two_controller_gates", num(2 * model.totalGates()),
          "Section 3.1, Table 4");
}

void
table5()
{
    banner("Table 5: architectural parameters", "paper Section 4, Table 5");

    MachineConfig sync = MachineConfig::bestSynchronous();
    MachineConfig mcd = MachineConfig::mcdProgram({});

    TextTable t("Table 5: architectural parameters for the simulated "
                "processor");
    t.setHeader({"parameter", "value"});
    t.addRow({"Fetch queue", csprintf("%d entries",
                                      sync.fetch_queue_entries)});
    t.addRow({"Branch mispredict penalty (synchronous)",
              csprintf("%d front-end + %d integer cycles",
                       sync.feDepth(), sync.dispatchDepth())});
    t.addRow({"Branch mispredict penalty (adaptive MCD)",
              csprintf("%d front-end + %d integer cycles",
                       mcd.feDepth(), mcd.dispatchDepth())});
    t.addRow({"Decode, issue, retire widths",
              csprintf("%d, %d, %d instructions", sync.decode_width,
                       sync.issue_width, sync.retire_width)});
    t.addRow({"L1 cache latency (A/B)", "2/8, 2/5, 2/2 or 2/- cycles"});
    t.addRow({"L2 cache latency (A/B)",
              "12/43, 12/27, 12/12 or 12/- cycles"});
    t.addRow({"Memory latency",
              "80 ns (first chunk), 2 ns (subsequent)"});
    t.addRow({"Integer ALUs", csprintf("%d + 1 mult/div unit",
                                       sync.int_alus)});
    t.addRow({"FP ALUs", csprintf("%d + 1 mult/div/sqrt unit",
                                  sync.fp_alus)});
    t.addRow({"Load/store queue", csprintf("%d entries",
                                           sync.lsq_entries)});
    t.addRow({"Physical register file",
              csprintf("%d integer, %d FP", sync.phys_int_regs,
                       sync.phys_fp_regs)});
    t.addRow({"Reorder buffer", csprintf("%d entries",
                                         sync.rob_entries)});
    t.print();

    TextTable f("Resolved clocks");
    f.setHeader({"machine", "front-end", "integer", "FP",
                 "load/store"});
    f.addRow({"best synchronous",
              csprintf("%.3f GHz", sync.synchronousFreqGHz()),
              csprintf("%.3f GHz", sync.synchronousFreqGHz()),
              csprintf("%.3f GHz", sync.synchronousFreqGHz()),
              csprintf("%.3f GHz", sync.synchronousFreqGHz())});
    f.addRow({"MCD base (minimal structures)",
              csprintf("%.3f GHz",
                       mcd.domainFreqGHz(DomainId::FrontEnd,
                                         mcd.adaptive)),
              csprintf("%.3f GHz",
                       mcd.domainFreqGHz(DomainId::Integer,
                                         mcd.adaptive)),
              csprintf("%.3f GHz",
                       mcd.domainFreqGHz(DomainId::FloatingPoint,
                                         mcd.adaptive)),
              csprintf("%.3f GHz",
                       mcd.domainFreqGHz(DomainId::LoadStore,
                                         mcd.adaptive))});
    AdaptiveConfig largest{3, 3, 3, 3};
    MachineConfig big = MachineConfig::mcdProgram(largest);
    f.addRow({"MCD largest structures",
              csprintf("%.3f GHz",
                       big.domainFreqGHz(DomainId::FrontEnd, largest)),
              csprintf("%.3f GHz",
                       big.domainFreqGHz(DomainId::Integer, largest)),
              csprintf("%.3f GHz",
                       big.domainFreqGHz(DomainId::FloatingPoint,
                                         largest)),
              csprintf("%.3f GHz",
                       big.domainFreqGHz(DomainId::LoadStore,
                                         largest))});
    f.print();
    std::printf("\n");
}

void
printSuite(const char *title, const char *suite_name)
{
    TextTable t(title);
    t.setHeader({"benchmark", "paper window", "window here", "warmup",
                 "hot code", "stream", "rand pool", "fp", "phases"});
    for (const WorkloadParams &w : benchmarkSuite()) {
        if (w.suite != suite_name)
            continue;
        const PhaseParams &p = w.phases.front();
        t.addRow({w.name, w.paper_window,
                  csprintf("%lluK", static_cast<unsigned long long>(
                                        w.sim_instrs / 1000)),
                  csprintf("%lluK", static_cast<unsigned long long>(
                                        w.warmup_instrs / 1000)),
                  csprintf("%lluKB", static_cast<unsigned long long>(
                                         p.code_hot_bytes / 1024)),
                  csprintf("%lluKB", static_cast<unsigned long long>(
                                         p.stream_bytes / 1024)),
                  csprintf("%lluKB", static_cast<unsigned long long>(
                                         p.rand_bytes / 1024)),
                  csprintf("%.0f%%", 100.0 * p.fp_frac),
                  csprintf("%zu", w.phases.size())});
    }
    t.print();
    std::printf("\n");
}

void
tables6to8()
{
    banner("Tables 6-8: benchmark applications",
           "paper Section 4, Tables 6, 7, 8 (synthetic analogs; "
           "windows scaled ~1000x, see docs/testing.md, Fidelity "
           "scorecard)");
    printSuite("Table 6: MediaBench applications", "MediaBench");
    printSuite("Table 7: Olden applications", "Olden");
    printSuite("Table 8a: SPEC2000 integer applications",
               "SPEC2000-Int");
    printSuite("Table 8b: SPEC2000 floating-point applications",
               "SPEC2000-Fp");
}

void
bestSync()
{
    banner("Best-overall synchronous design search",
           "paper Section 4 (expected winner: 64KB 1W I-cache, "
           "32KB/256KB 1W caches, 16-entry queues)");

    // Twelve evenly spaced benchmarks keep the sweep quick while
    // covering all three suites.
    const std::vector<WorkloadParams> all = benchmarkSuite();
    const size_t subset = 12;
    std::vector<WorkloadParams> suite;
    for (size_t i = 0; i < subset; ++i)
        suite.push_back(all[i * all.size() / subset]);
    std::printf("sweeping 64 (I-cache x cache pair) design points over "
                "%zu benchmarks...\n",
                suite.size());
    std::fflush(stdout);

    auto points = sweepSynchronous(suite, false);

    TextTable t("Synchronous design points, best first (geometric-mean "
                "runtime normalized to the winner)");
    t.setHeader({"rank", "I-cache", "D/L2", "int IQ", "fp IQ", "GHz",
                 "norm runtime"});
    for (size_t i = 0; i < points.size() && i < 10; ++i) {
        const SyncDesignPoint &p = points[i];
        t.addRow({csprintf("%zu", i + 1),
                  optICacheConfig(p.icache_opt).name,
                  dcachePairConfig(p.dcache).name,
                  csprintf("%d", kIssueQueueSizes[p.iq_int]),
                  csprintf("%d", kIssueQueueSizes[p.iq_fp]),
                  csprintf("%.3f",
                           synchronousFreq(p.icache_opt, p.dcache,
                                           p.iq_int, p.iq_fp)),
                  csprintf("%.4f", p.norm_runtime)});
    }
    t.print();

    const SyncDesignPoint &best = points.front();
    std::printf("\nwinner: %s I-cache + %s caches + %d/%d-entry "
                "queues at %.3f GHz\n\n",
                optICacheConfig(best.icache_opt).name.c_str(),
                dcachePairConfig(best.dcache).name.c_str(),
                kIssueQueueSizes[best.iq_int],
                kIssueQueueSizes[best.iq_fp],
                synchronousFreq(best.icache_opt, best.dcache,
                                best.iq_int, best.iq_fp));

    // Where the Figure 6 baseline (the paper's winner) ranks here.
    const MachineConfig base = MachineConfig::bestSynchronous();
    auto at = std::find_if(
        points.begin(), points.end(), [&](const SyncDesignPoint &p) {
            return p.icache_opt == base.sync_icache_opt &&
                   p.dcache == base.adaptive.dcache &&
                   p.iq_int == base.adaptive.iq_int &&
                   p.iq_fp == base.adaptive.iq_fp;
        });
    GALS_ASSERT(at != points.end(), "baseline outside the sync sweep");
    const char *src = "Section 4";
    score("best_sync.benchmarks", num(suite.size()), src);
    score("best_sync.winner",
          csprintf("\"%s + %s + %d/%d\"",
                   optICacheConfig(best.icache_opt).name.c_str(),
                   dcachePairConfig(best.dcache).name.c_str(),
                   kIssueQueueSizes[best.iq_int],
                   kIssueQueueSizes[best.iq_fp]),
          src);
    score("best_sync.baseline_rank", num(at - points.begin() + 1), src);
    score("best_sync.baseline_norm_runtime", num(at->norm_runtime), src);
}

void
ablationPenalties()
{
    banner("Ablation: branch mispredict penalty (9+7 sync vs "
           "10+9 adaptive MCD)",
           "paper Section 2 (over-pipelining cost of "
           "adaptability)");

    WorkloadParams base = findBenchmark("adpcm encode");
    base.sim_instrs = 60'000;
    base.warmup_instrs = 8'000;

    MachineConfig sync = MachineConfig::bestSynchronous();
    MachineConfig mcd = MachineConfig::mcdProgram({});

    TextTable t("Runtime vs injected branch noise");
    t.setHeader({"branch noise", "sync ns", "sync mispredict", "mcd ns",
                 "mcd mispredict", "mcd advantage"});
    for (double noise : {0.0, 0.05, 0.1, 0.2, 0.4}) {
        WorkloadParams wl = base;
        for (PhaseParams &p : wl.phases)
            p.branch_noise = noise;
        RunStats s = simulate(sync, wl);
        RunStats m = simulate(mcd, wl);
        t.addRow({csprintf("%.2f", noise),
                  csprintf("%.0f", runtimeNs(s)),
                  csprintf("%.1f%%",
                           s.branches ? 100.0 * s.mispredicts /
                                            s.branches : 0.0),
                  csprintf("%.0f", runtimeNs(m)),
                  csprintf("%.1f%%",
                           m.branches ? 100.0 * m.mispredicts /
                                            m.branches : 0.0),
                  csprintf("%+.1f%%",
                           100.0 * (runtimeNs(s) / runtimeNs(m) -
                                    1.0))});
    }
    t.print();
    std::printf("\nreading: the MCD clock advantage shrinks as flushes "
                "dominate, because each flush refills a deeper pipe "
                "(10+9 vs 9+7 stages plus a synchronizer crossing).\n"
                "\n");
}

/** MCD with every domain near the synchronous clock (detuned so the
 * phases rotate) against the synchronous machine: what remains is the
 * synchronizers plus the deeper 10+9 vs 9+7 mispredict pipeline. */
void
ablationSyncCost()
{
    banner("Ablation: inter-domain synchronization cost",
           "paper Section 2 (citing [28]: <3% average slowdown)");

    const char *names[] = {"adpcm encode", "g721 decode", "power",
                           "gzip", "mesa texgen", "twolf"};
    MachineConfig sync = MachineConfig::bestSynchronous();
    double base_f = sync.synchronousFreqGHz();

    TextTable t("MCD at matched frequency vs fully synchronous");
    t.setHeader({"benchmark", "sync ns", "mcd-matched ns",
                 "slowdown"});
    double sum = 0.0;
    int n = 0;
    for (const char *name : names) {
        WorkloadParams wl = findBenchmark(name);
        RunStats s = simulate(sync, wl);

        MachineConfig mcd =
            MachineConfig::mcdProgram(AdaptiveConfig{3, 0, 0, 0});
        // Detune by -0.3% so domain phases rotate.
        mcd.force_freq_ghz = base_f * 0.997;
        RunStats m = simulate(mcd, wl);

        // Normalize out the deliberate 0.3% detune.
        double slowdown =
            runtimeNs(m) * 0.997 / runtimeNs(s) - 1.0;
        sum += slowdown;
        ++n;
        t.addRow({name, csprintf("%.0f", runtimeNs(s)),
                  csprintf("%.0f", runtimeNs(m)),
                  csprintf("%+.1f%%", 100.0 * slowdown)});
    }
    t.addRule();
    t.addRow({"AVERAGE", "", "", csprintf("%+.1f%%", 100.0 * sum / n)});
    t.print();
    std::printf("\n");
    score("ablation_sync_cost.avg_slowdown_pct", num(100.0 * sum / n),
          "Section 2, citing [28]");
}

/** Scorecard rows of the study: Figure 6 averages, the phase-minus-
 * program record, Table 9 and the phase machine's adaptation rates. */
void
scoreStudy(const StudyResult &r)
{
    const char *f6 = "Section 5, Figure 6";
    auto averages = [&](const StudyResult &part, const std::string &of) {
        score("fig6.program_avg_pct." + of,
              num(100.0 * part.avgProgramImprovement()), f6);
        score("fig6.phase_avg_pct." + of,
              num(100.0 * part.avgPhaseImprovement()), f6);
    };
    // Per suite (the rows arrive grouped by suite), then overall.
    StudyResult part;
    for (size_t i = 0; i < r.benchmarks.size(); ++i) {
        const std::string &suite = r.benchmarks[i].suite;
        part.benchmarks.push_back(r.benchmarks[i]);
        if (i + 1 == r.benchmarks.size() ||
            r.benchmarks[i + 1].suite != suite) {
            averages(part, suite);
            part.benchmarks.clear();
        }
    }
    averages(r, "all");
    score("fig6.phase_minus_program_pts",
          num(100.0 * (r.avgPhaseImprovement() -
                       r.avgProgramImprovement())),
          f6);
    // Gaps under Figure 6's printed resolution (0.1 points) are ties.
    int wins = 0, losses = 0;
    for (const BenchmarkResult &b : r.benchmarks) {
        double gap =
            100.0 * (b.phaseImprovement() - b.programImprovement());
        wins += gap >= 0.1;
        losses += gap <= -0.1;
    }
    score("fig6.phase_wins", num(wins), f6);
    score("fig6.phase_losses", num(losses), f6);
    score("fig6.phase_ties", num(r.benchmarks.size() - wins - losses),
          f6);

    for (Structure s : kTable9Columns) {
        for (int k = 0; k < kNumAdaptiveConfigs; ++k) {
            score(csprintf("table9.%s.%s", structureName(s),
                           configLabel(s, k).c_str()),
                  num(r.distribution(s)[static_cast<size_t>(k)]),
                  "Section 5, Table 9");
        }
    }

    double minstr = 0.0, relocks = 0.0;
    for (const BenchmarkResult &b : r.benchmarks) {
        minstr += static_cast<double>(b.phase_stats.committed) / 1e6;
        relocks += static_cast<double>(b.phase_stats.relocks);
    }
    for (Structure s : kTable9Columns) {
        double events = 0.0;
        for (const BenchmarkResult &b : r.benchmarks)
            events += b.phase_stats.trace.countFor(s);
        score(csprintf("phase.reconfigs_per_minstr.%s",
                       structureName(s)),
              num(events / minstr), "Section 5.1");
    }
    score("phase.relocks_per_minstr", num(relocks / minstr),
          "Section 5.1");
}

void
fig6Table9()
{
    banner("Figure 6 + Table 9: Program- and Phase-Adaptive "
           "performance",
           "paper Section 5, Figure 6 and Table 9 (paper "
           "averages: +17.6% program, +20.4% phase)");

    std::vector<WorkloadParams> suite = benchmarkSuite();
    std::printf("running %zu benchmarks, staged (~17) program-adaptive "
                "sweep...\n",
                suite.size());
    std::fflush(stdout);
    const StudyResult r = runStudy(suite, SweepMode::Staged, false);
    std::printf("%s\n", renderFigure6(r).c_str());
    std::printf("%s\n", renderTable9(r).c_str());
    std::printf("total simulation runs: %llu\n\n",
                static_cast<unsigned long long>(r.total_runs));
    scoreStudy(r);
}

void
printTrace(const char *bench, Structure s, const char *title)
{
    WorkloadParams wl = findBenchmark(bench);
    RunStats stats = simulate(MachineConfig::mcdPhaseAdaptive(), wl);
    std::printf("%s\n",
                renderReconfigTrace(title, stats.trace, s, 0,
                                    wl.warmup_instrs + wl.sim_instrs)
                    .c_str());
    std::printf("  residency (committed instrs per config):");
    const auto &res = stats.residency[static_cast<size_t>(s)];
    for (size_t i = 0; i < res.size(); ++i) {
        std::printf(" [%zu]=%llu", i,
                    static_cast<unsigned long long>(res[i]));
    }
    std::printf("\n\n");
}

void
fig7()
{
    banner("Figure 7: sample reconfiguration traces",
           "paper Section 5.1, Figure 7 (a: apsi D/L2 phases, "
           "b: art integer IQ phases)");

    printTrace("apsi", Structure::DCachePair,
               "(a) apsi D/L2 cache configurations vs committed "
               "instructions");
    printTrace("art", Structure::IntIssueQueue,
               "(b) art integer issue-queue configurations vs "
               "committed instructions");
}

struct Section
{
    const char *name;
    void (*run)();
};

/** Every section, in paper order. */
const Section kSections[] = {
    {"table1_fig2", table1Fig2},
    {"tables2_3_fig3", tables2And3Fig3},
    {"fig4", fig4},
    {"table4", table4},
    {"table5", table5},
    {"tables6to8", tables6to8},
    {"best_sync", bestSync},
    {"ablation_penalties", ablationPenalties},
    {"ablation_sync_cost", ablationSyncCost},
    {"fig6_table9", fig6Table9},
    {"fig7", fig7},
};

int
usage()
{
    std::fprintf(stderr, "usage: repro [--json FILE] [SECTION...]\n"
                         "sections:");
    for (const Section &s : kSections)
        std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::set<std::string> picked;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--json") {
            if (a + 1 >= argc)
                return usage();
            json_path = argv[++a];
        } else if (std::none_of(std::begin(kSections),
                                std::end(kSections),
                                [&](const Section &s) {
                                    return arg == s.name;
                                })) {
            std::fprintf(stderr, "repro: unknown section '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            picked.insert(arg);
        }
    }

    // Open --json before simulating anything: a bad path is a user
    // error that must not cost a whole study first.
    std::ofstream json_file;
    if (!json_path.empty()) {
        json_file.open(json_path, std::ios::binary);
        if (!json_file)
            fatal("cannot write '%s'", json_path.c_str());
    }

    for (const Section &s : kSections) {
        if (picked.empty() || picked.count(s.name))
            s.run();
    }

    if (!json_path.empty()) {
        json_file << "{\n  \"scorecard\": \"fidelity\",\n  \"rows\": [\n";
        for (size_t i = 0; i < g_rows.size(); ++i)
            json_file << "    " << g_rows[i]
                      << (i + 1 < g_rows.size() ? ",\n" : "\n");
        json_file << "  ]\n}\n";
        if (!json_file.flush())
            fatal("cannot write '%s'", json_path.c_str());
    }
    return 0;
}
