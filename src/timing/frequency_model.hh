/**
 * @file
 * The single source of truth for every resizable-structure
 * configuration in the adaptive MCD processor and for the clock
 * frequency each configuration supports.
 *
 * Covers:
 *  - Table 1: the four jointly resized L1D/L2 configurations, with
 *    adaptive and optimal sub-bank organizations;
 *  - Table 2: the four adaptive I-cache + branch predictor
 *    configurations;
 *  - Table 3: the sixteen optimized synchronous I-cache + predictor
 *    configurations explored for the best-overall baseline;
 *  - Figure 4: issue-queue frequency for 16/32/48/64 entries;
 *  - Table 5 cache latencies (A/B partition latencies per config).
 *
 * Frequencies are evaluated once from the analytical timing models
 * (CactiModel, IssueQueueTiming) and cached.
 */

#ifndef GALS_TIMING_FREQUENCY_MODEL_HH
#define GALS_TIMING_FREQUENCY_MODEL_HH

#include <cstdint>
#include <string>

#include "timing/cacti_model.hh"

namespace gals
{

/** Number of jointly resized configurations per adaptive structure. */
constexpr int kNumAdaptiveConfigs = 4;

/** Issue-queue sizes considered by the paper. */
constexpr int kIssueQueueSizes[kNumAdaptiveConfigs] = {16, 32, 48, 64};

/** Number of optimized synchronous I-cache options (Table 3). */
constexpr int kNumOptICacheConfigs = 16;

/** Branch predictor organization (McFarling hybrid, Tables 2 and 3). */
struct PredictorOrg
{
    int gshare_hist_bits;   //!< hg: global history length.
    int gshare_entries;     //!< 2^hg two-bit counters.
    int meta_entries;       //!< metapredictor two-bit counters.
    int local_hist_bits;    //!< hl: local history width.
    int local_bht_entries;  //!< 2^hl two-bit counters.
    int local_pht_entries;  //!< per-branch history table entries.
};

/** One jointly resized L1D/L2 configuration (a row of Table 1). */
struct DCachePairConfig
{
    int index;                //!< 0 (smallest/fastest) .. 3.
    SramOrg l1_adapt;         //!< adaptive L1D organization.
    SramOrg l1_opt;           //!< optimal L1D organization.
    SramOrg l2_adapt;         //!< adaptive L2 organization.
    SramOrg l2_opt;           //!< optimal L2 organization.
    int l1_a_lat;             //!< L1 A-partition latency (cycles).
    int l1_b_lat;             //!< L1 B-partition latency; <0 => no B.
    int l2_a_lat;             //!< L2 A-partition latency (cycles).
    int l2_b_lat;             //!< L2 B-partition latency; <0 => no B.
    double freq_adaptive_ghz; //!< load/store domain clock, adaptive.
    double freq_optimal_ghz;  //!< same capacity, optimal organization.
    std::string name;         //!< e.g. "32k1W/256k1W".
};

/** One adaptive I-cache + predictor configuration (a row of Table 2). */
struct ICacheConfig
{
    int index;                //!< 0 (smallest/fastest) .. 3.
    SramOrg org;              //!< I-cache organization (32 sub-banks).
    PredictorOrg predictor;   //!< matched branch predictor.
    int a_lat;                //!< A-partition latency (cycles).
    int b_lat;                //!< B-partition latency; <0 => no B.
    double freq_ghz;          //!< front-end domain clock.
    std::string name;         //!< e.g. "16k1W".
};

/** One optimized synchronous I-cache option (a row of Table 3). */
struct OptICacheConfig
{
    int index;                //!< 0 .. 15.
    SramOrg org;              //!< optimized organization.
    PredictorOrg predictor;   //!< matched branch predictor.
    double freq_ghz;          //!< frequency this option supports.
    std::string name;         //!< e.g. "64k1W".
};

/** Frequency of an issue queue of the given size index (Fig. 4). */
double issueQueueFreqGHz(int size_index);

/** Issue-queue frequency for an arbitrary entry count (Fig. 4 curve). */
double issueQueueFreqGHzForEntries(int entries);

/** Table 1 row for config index 0..3. */
const DCachePairConfig &dcachePairConfig(int index);

/** Table 2 row for config index 0..3. */
const ICacheConfig &icacheConfig(int index);

/** Table 3 row for option index 0..15. */
const OptICacheConfig &optICacheConfig(int index);

/** The L1D, L2 and MCD L1I arrays: the largest rows of Tables 1 and 2.
 * Rows share their way size, so with B off a k-way row is exactly the
 * A partition of k ways (docs/kernel.md, "One cache organization"). */
inline const SramOrg &
l1dArray()
{
    return dcachePairConfig(kNumAdaptiveConfigs - 1).l1_adapt;
}
inline const SramOrg &
l2Array()
{
    return dcachePairConfig(kNumAdaptiveConfigs - 1).l2_adapt;
}
inline const SramOrg &
l1iArray()
{
    return icacheConfig(kNumAdaptiveConfigs - 1).org;
}

/** Cycles to a B hit or a known miss, charged by the L1D, the L2 and
 * accountingCost: A, then B while live (`b_lat` < 0: there is none). */
constexpr int
serialProbeCycles(int a_lat, int b_lat, bool b_on)
{
    return a_lat + (b_on && b_lat > 0 ? b_lat : 0);
}

/**
 * Upper bound on any domain clock imposed by non-resizable core logic
 * (rename, bypass, register files). None of the structure frequencies
 * above reach it; it exists so sweeps cannot produce absurd clocks for
 * tiny structures.
 */
constexpr double kCoreLogicCapGHz = 1.75;

/** Front-end domain frequency for adaptive I-cache config 0..3. */
double frontEndFreqAdaptive(int icache_index);

/** Load/store domain frequency for adaptive D/L2 config 0..3. */
double loadStoreFreqAdaptive(int dcache_index);

/** Integer/FP domain frequency for IQ size index 0..3. */
double issueDomainFreqAdaptive(int iq_size_index);

/**
 * Global clock of a fully synchronous design: the minimum of the four
 * structure frequencies using the *optimal* (non-adaptive) timings.
 *
 * @param opt_icache_index Table 3 option, 0..15.
 * @param dcache_index     Table 1 capacity point, 0..3.
 * @param iq_int_index     integer IQ size index, 0..3.
 * @param iq_fp_index      FP IQ size index, 0..3.
 */
double synchronousFreq(int opt_icache_index, int dcache_index,
                       int iq_int_index, int iq_fp_index);

/** Main-memory timing (Table 5): 80 ns first chunk, 2 ns subsequent. */
constexpr double kMemFirstChunkNs = 80.0;
constexpr double kMemNextChunkNs = 2.0;
/** Chunks per 64-byte line on an 8-byte bus. */
constexpr int kMemChunksPerLine = 8;

/** Total main-memory latency for one full line fill, in picoseconds. */
std::uint64_t memoryLineFillPs();

} // namespace gals

#endif // GALS_TIMING_FREQUENCY_MODEL_HH
