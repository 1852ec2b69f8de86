#include "core/machine_config.hh"

#include "common/logging.hh"

namespace gals
{

std::string
AdaptiveConfig::str() const
{
    return csprintf("I%d D%d Qi%d Qf%d", icache, dcache, iq_int, iq_fp);
}

double
MachineConfig::synchronousFreqGHz() const
{
    return synchronousFreq(sync_icache_opt, adaptive.dcache,
                           adaptive.iq_int, adaptive.iq_fp);
}

Structure
structureOf(DomainId d)
{
    for (const AdaptiveStructure &a : kAdaptiveStructures) {
        if (a.domain == d)
            return a.structure;
    }
    panic("domain %d owns no adaptive structure", static_cast<int>(d));
}

double
MachineConfig::domainFreqGHz(DomainId d, const AdaptiveConfig &cur) const
{
    if (force_freq_ghz > 0.0)
        return force_freq_ghz;
    if (mode == ClockingMode::Synchronous)
        return synchronousFreqGHz();
    const AdaptiveStructure &a = adaptiveStructure(structureOf(d));
    return a.freq_ghz(cur.*a.index);
}

MachineConfig
MachineConfig::bestSynchronous()
{
    // Paper §4: 16-entry integer and FP issue queues, 64KB
    // direct-mapped I-cache (Table 3) with its predictor, 32KB
    // direct-mapped L1D with 256KB direct-mapped L2.
    return synchronous(4, 0, 0, 0);
}

MachineConfig
MachineConfig::synchronous(int opt_icache, int dcache, int iq_int,
                           int iq_fp)
{
    MachineConfig c;
    c.mode = ClockingMode::Synchronous;
    c.sync_icache_opt = opt_icache;
    c.adaptive.icache = 0; // unused in synchronous mode.
    c.adaptive.dcache = dcache;
    c.adaptive.iq_int = iq_int;
    c.adaptive.iq_fp = iq_fp;
    return c;
}

MachineConfig
MachineConfig::mcdProgram(const AdaptiveConfig &cfg)
{
    MachineConfig c;
    c.mode = ClockingMode::MCD;
    c.adaptive = cfg;
    return c;
}

MachineConfig
MachineConfig::mcdPhaseAdaptive()
{
    MachineConfig c;
    c.mode = ClockingMode::MCD;
    c.phase_adaptive = true;
    c.adaptive = AdaptiveConfig{}; // start minimal / fastest.
    return c;
}

} // namespace gals
