/**
 * @file
 * Layer replay kernels for the traced run. Each replays a leaf's own
 * generated instruction stream through one layer's public entry
 * point (SyntheticWorkload::nextBatch, HybridPredictor::predict +
 * update, AccountingCache::access, InterconnectPort::requestLine onto
 * a SharedL2) with the geometry of the leaf's machine, and records one
 * span per layer call loop. They run only in traced runs, after the
 * timed passes, so they never touch the end-to-end timings.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "cmp/chip.hh"
#include "harness.hh"
#include "workload/params.hh"

namespace perfbench
{

/** Host cost and outcome counts summed over replayed leaves. */
struct LayerReplay
{
    double gen_ns = 0.0;
    std::uint64_t gen_ops = 0;

    double pred_ns = 0.0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    double l1i_ns = 0.0;
    std::uint64_t l1i_accesses = 0;
    double l1d_ns = 0.0;
    std::uint64_t l1d_accesses = 0;
    /** Outcomes over L1I + L1D accesses. */
    std::uint64_t a_hits = 0;
    std::uint64_t b_hits = 0;
    std::uint64_t misses = 0;

    double l2_ns = 0.0;
    std::uint64_t l2_accesses = 0;

    /** Replayed host time attributable to the leaf's child layers. */
    double
    childNs() const
    {
        return gen_ns + pred_ns + l1i_ns + l1d_ns + l2_ns;
    }
};

/**
 * Replay one leaf: every core's warmup + window stream of `workloads`
 * through that core's predictor, L1I and L1D (built as the machine of
 * `chip` builds them), then the L1D misses of all cores, interleaved,
 * through a shared L2 of the chip's geometry. A single-core leaf is a
 * one-core chip. Spans are children of `parent` with leaf id `leaf`.
 */
void replayLeaf(const gals::ChipConfig &chip,
                const std::vector<gals::WorkloadParams> &workloads,
                SpanLog &log, int parent, long leaf, LayerReplay &out);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
