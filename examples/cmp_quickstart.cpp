/**
 * @file
 * Minimal chip-multiprocessor demo: run a multiprogrammed mix on a
 * 2-core GALS chip and print per-core windows plus the chip-level
 * interconnect behavior.
 *
 *   cmp_quickstart [cores] [banks] [mix]
 *
 * `mix` is "multi" (default: the multiprogrammed suite rotation) or
 * "sharing" (a producer/consumer sharing mix over the coherent
 * window on a phase-adaptive machine — the configuration the traced
 * observability quickstart exercises: it produces coherence
 * invalidations AND reconfiguration decisions, so a GALS_TRACE run
 * carries every event family for scripts/check_trace.py).
 *
 * `cores` must be 1..16 and `banks` a power of two in 1..1024;
 * anything else (or a non-integer) exits with status 2.
 */

#include <cstdio>
#include <cstring>

#include "cmp/chip.hh"
#include "common/parse.hh"
#include "workload/suite.hh"

using namespace gals;

int
main(int argc, char **argv)
{
    int cores = argc > 1 ? static_cast<int>(parseIntegerArg(
                               "cores", argv[1], 1, kMaxCores))
                         : 2;
    int banks = argc > 2 ? static_cast<int>(parseIntegerArg(
                               "banks", argv[2], 1, 1024))
                         : 4;
    if ((banks & (banks - 1)) != 0) {
        std::fprintf(stderr, "banks: '%d' is not a power of two\n",
                     banks);
        return 2;
    }
    const bool sharing =
        argc > 3 && std::strcmp(argv[3], "sharing") == 0;

    ChipConfig cc;
    cc.machine = sharing ? MachineConfig::mcdPhaseAdaptive()
                         : MachineConfig::mcdProgram({});
    cc.cores = cores;
    cc.l2_banks = banks;

    std::vector<WorkloadParams> mix =
        sharing ? sharingMix(benchmarkSuite().front(), cores,
                             "producer-consumer")
                : multiprogrammedMix(benchmarkSuite(), cores, 0);
    for (WorkloadParams &wl : mix) {
        wl.sim_instrs = 30'000;
        wl.warmup_instrs = 3'000;
    }

    Chip chip(cc, mix);
    ChipRunStats s = chip.run();

    std::printf("%d-core GALS chip, %d-bank shared L2 (%s)\n\n",
                cores, banks, s.cores[0].config.c_str());
    for (size_t c = 0; c < s.cores.size(); ++c) {
        const RunStats &r = s.cores[c];
        std::printf("  core %zu  %-12s %8llu instrs  %9.0f ns  "
                    "%.2f instr/ns\n",
                    c, r.benchmark.c_str(),
                    static_cast<unsigned long long>(r.committed),
                    static_cast<double>(r.time_ps) / 1000.0,
                    r.instrsPerNs());
    }
    std::printf("\n  chip    %8llu instrs  makespan %9.0f ns  "
                "%.2f instr/ns\n",
                static_cast<unsigned long long>(s.total_committed),
                static_cast<double>(s.makespan_ps) / 1000.0,
                s.throughputInstrsPerNs());
    std::printf("  shared L2: %llu accesses, %llu misses; "
                "%llu bank conflicts, %llu fill-slot waits, "
                "%llu in-flight merges\n",
                static_cast<unsigned long long>(s.l2_accesses),
                static_cast<unsigned long long>(s.l2_misses),
                static_cast<unsigned long long>(s.bank_conflicts),
                static_cast<unsigned long long>(s.bank_mshr_waits),
                static_cast<unsigned long long>(s.fill_merges));

    return 0;
}
