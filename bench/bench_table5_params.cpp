/**
 * @file
 * Reproduces Table 5: the architectural parameters of the simulated
 * processor, including the per-mode branch mispredict penalties and
 * the resolved clock frequencies of the machines under comparison.
 * The registered benchmark measures the construction cost of a
 * one-core chip.
 */

#include "bench_util.hh"

#include "cmp/chip.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/machine_config.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

void
printTable5()
{
    benchBanner("Table 5: architectural parameters",
                "paper Section 4, Table 5");

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
BM_CoreConstruction(benchmark::State &state)
{
    ChipConfig cc;
    cc.machine = MachineConfig::mcdPhaseAdaptive();
    const std::vector<WorkloadParams> wl{findBenchmark("gcc")};
    for (auto _ : state) {
        Chip chip(cc, wl);
        benchmark::DoNotOptimize(&chip);
    }
}
BENCHMARK(BM_CoreConstruction);

} // namespace

int
main(int argc, char **argv)
{
    printTable5();
    return runRegisteredBenchmarks(argc, argv);
}
