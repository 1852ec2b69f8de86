/**
 * @file
 * Design-space explorer: for one benchmark, evaluate every
 * configuration of one adaptive structure (others held at the
 * minimum) and print the frequency/IPC/runtime tradeoff — the
 * per-application view behind the paper's Program-Adaptive sweep.
 *
 * Usage: design_space [benchmark-name]   (default: gcc)
 */

#include <cstdio>
#include <string>

#include "common/table.hh"
#include "sim/report.hh"
#include "sim/simulation.hh"
#include "timing/frequency_model.hh"
#include "workload/suite.hh"

using namespace gals;

namespace
{

void
sweepStructure(const WorkloadParams &wl, const char *title,
               Structure structure)
{
    TextTable t(title);
    t.setHeader({"config", "domain GHz", "runtime ns", "instr/ns",
                 "vs base"});
    double base_ns = 0.0;
    for (int idx = 0; idx < kNumAdaptiveConfigs; ++idx) {
        AdaptiveConfig cfg{};
        cfg[structure] = idx;
        MachineConfig m = MachineConfig::mcdProgram(cfg);
        RunStats s = simulate(m, wl);
        double ns = runtimeNs(s);
        if (idx == 0)
            base_ns = ns;
        t.addRow({configLabel(structure, idx),
                  csprintf("%.3f",
                           m.domainFreqGHz(domainOf(structure), cfg)),
                  csprintf("%.0f", ns),
                  csprintf("%.2f", s.instrsPerNs()),
                  csprintf("%+.1f%%", 100.0 * (base_ns / ns - 1.0))});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "gcc";
    const WorkloadParams &wl = findBenchmark(name);
    std::printf("per-structure design space for '%s' (other "
                "structures at minimum)\n\n",
                wl.name.c_str());

    sweepStructure(wl, "I-cache / branch predictor (front-end domain)",
                   Structure::ICache);
    sweepStructure(wl, "L1D/L2 cache pair (load/store domain)",
                   Structure::DCachePair);
    sweepStructure(wl, "integer issue queue (integer domain)",
                   Structure::IntIssueQueue);
    sweepStructure(wl, "fp issue queue (floating-point domain)",
                   Structure::FpIssueQueue);

    RunStats sync =
        simulate(MachineConfig::bestSynchronous(), wl);
    std::printf("best synchronous reference: %.0f ns (%.2f instr/ns "
                "at %.3f GHz)\n",
                runtimeNs(sync), sync.instrsPerNs(),
                MachineConfig::bestSynchronous().synchronousFreqGHz());
    return 0;
}
