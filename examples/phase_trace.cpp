/**
 * @file
 * Phase-adaptation explorer: run a benchmark with periodic phases on
 * the Phase-Adaptive MCD machine and dump every reconfiguration event
 * plus Figure-7-style traces for all four adaptive structures.
 *
 * Usage: phase_trace [benchmark-name]   (default: apsi)
 */

#include <cstdio>
#include <string>
#include <utility>

#include "sim/report.hh"
#include "sim/simulation.hh"
#include "workload/suite.hh"

using namespace gals;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "apsi";
    const WorkloadParams &wl = findBenchmark(name);

    std::printf("benchmark: %s (%zu phase(s) per cycle)\n\n",
                wl.name.c_str(), wl.phases.size());

    RunStats s = simulate(MachineConfig::mcdPhaseAdaptive(), wl);
    std::uint64_t total = wl.warmup_instrs + wl.sim_instrs;

    std::printf("reconfiguration events (%zu total):\n",
                s.trace.events().size());
    for (const ReconfigEvent &e : s.trace.events()) {
        std::printf("  @%9llu instrs  %-10s %d -> %d\n",
                    static_cast<unsigned long long>(
                        e.committed_instrs),
                    structureName(e.structure), e.from_index,
                    e.to_index);
    }
    std::printf("\n");

    const std::pair<const char *, Structure> traces[] = {
        {"D/L2 cache configuration", Structure::DCachePair},
        {"I-cache configuration", Structure::ICache},
        {"integer issue queue", Structure::IntIssueQueue},
        {"fp issue queue", Structure::FpIssueQueue},
    };
    for (const auto &[title, structure] : traces) {
        std::printf("%s\n", renderReconfigTrace(title, s.trace,
                                                structure, 0, total)
                                .c_str());
    }

    std::printf("PLL re-locks: %llu, runtime %.0f ns, %.2f instr/ns\n",
                static_cast<unsigned long long>(s.relocks),
                runtimeNs(s), s.instrsPerNs());
    return 0;
}
