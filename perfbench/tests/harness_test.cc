/**
 * @file
 * Tests of the benchmark's measurement plumbing: tail-percentile
 * refusal, span self-time arithmetic, and strict argument parsing.
 */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace perfbench;

TEST(Percentile, RefusesTailWithFewerThanTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
    EXPECT_EQ(samplesBeyond(120, 0.9), 12u);

    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    EXPECT_FALSE(tailPercentile(v, 0.9).has_value());
    v.push_back(100);
    std::optional<double> p90 = tailPercentile(v, 0.9);
    ASSERT_TRUE(p90.has_value());
    EXPECT_EQ(*p90, 90.0); // ten samples (91..100) lie beyond it.
}

TEST(Percentile, LeafTimesPrintCountAndOmitRefusedTail)
{
    Report r;
    setLeafTimes({5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0,
                  12.0},
                 r);
    EXPECT_EQ(r.get("leaf_samples"), 12.0);
    EXPECT_EQ(r.get("leaf_ms_p50"), 6.5);
    EXPECT_EQ(r.get("leaf_ms_p90"), 0.0); // refused: 1 sample beyond.

    std::vector<double> many;
    for (int i = 0; i < 200; ++i)
        many.push_back(i);
    Report full;
    setLeafTimes(many, full);
    EXPECT_EQ(full.get("leaf_samples"), 200.0);
    EXPECT_EQ(full.get("leaf_ms_p90"), 179.0);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTimeOnce)
{
    // root [0,100]
    //   a [10,40]      (child of root)
    //     g [15,20]    (child of a)
    //   b [30,60]      (overlaps a: the overlap counts once)
    //   c [90,120]     (runs past root: clipped to [90,100])
    std::vector<Span> s = {
        {"root", 0, 100, -1, -1}, {"a", 10, 40, 0, 1},
        {"g", 15, 20, 1, 1},      {"b", 30, 60, 0, 2},
        {"c", 90, 120, 0, 3},
    };
    std::vector<std::int64_t> self = selfTimes(s);
    EXPECT_EQ(self[0], 100 - (50 + 10)); // covered: [10,60] and [90,100].
    EXPECT_EQ(self[1], 30 - 5);
    EXPECT_EQ(self[2], 5);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 30);
    ASSERT_EQ(durationsMs(s, "b").size(), 1u);
    EXPECT_DOUBLE_EQ(durationsMs(s, "b")[0], 30e-6);
}

TEST(Spans, NullLogRecordsNothingAndLogRecordsParents)
{
    {
        ScopedSpan none(nullptr, "x");
        EXPECT_EQ(none.id(), -1);
    }
    SpanLog log;
    {
        ScopedSpan outer(&log, "outer");
        ScopedSpan inner(&log, "inner", outer.id(), 7);
    }
    std::vector<Span> s = log.spans();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[1].leaf, 7);
    EXPECT_LE(s[0].start_ns, s[1].start_ns);
    EXPECT_GE(s[0].end_ns, s[1].end_ns);
}

namespace
{

std::optional<Options>
parse(std::vector<std::string> args)
{
    std::string error;
    std::optional<Options> o = parseArgs(args, error);
    EXPECT_EQ(o.has_value(), error.empty()) << error;
    return o;
}

std::vector<std::string>
with(const std::string &flag, const std::string &value)
{
    std::vector<std::string> a = {"--workload", "cmp_chip", "--seed", "3",
                                  "--seconds",  "10",       "--trace", "1",
                                  "--out-dir",  "out"};
    for (std::size_t i = 0; i < a.size(); i += 2) {
        if (a[i] == flag)
            a[i + 1] = value;
    }
    return a;
}

} // namespace

TEST(Args, AcceptsWellFormedInput)
{
    std::optional<Options> o = parse(with("--seed", "18446744073709551615"));
    ASSERT_TRUE(o.has_value());
    EXPECT_EQ(o->workload, "cmp_chip");
    EXPECT_EQ(o->seed, 18446744073709551615ULL);
    EXPECT_EQ(o->seconds, 10);
    EXPECT_TRUE(o->trace);
    EXPECT_FALSE(o->setup_only);
    EXPECT_EQ(o->out_dir, "out");
}

TEST(Args, RejectsBadInput)
{
    for (const auto &[flag, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"--workload", "gzip"},
             {"--workload", ""},
             {"--seed", "12x"},
             {"--seed", "-1"},
             {"--seed", "+1"},
             {"--seed", " 1"},
             {"--seed", ""},
             {"--seed", "18446744073709551616"},
             {"--seconds", "0"},
             {"--seconds", "3601"},
             {"--seconds", "1.5"},
             {"--trace", "2"},
             {"--trace", "yes"},
             {"--out-dir", ""},
         }) {
        EXPECT_FALSE(parse(with(flag, value)).has_value())
            << flag << " " << value;
    }
    EXPECT_FALSE(parse({"--seed", "1", "--out-dir", "o"}).has_value());
    EXPECT_FALSE(parse({"--workload", "cmp_chip"}).has_value());
    EXPECT_FALSE(parse({"--workload"}).has_value());
    std::vector<std::string> extra = with("--seed", "1");
    extra.push_back("--verbose");
    EXPECT_FALSE(parse(extra).has_value());
}

TEST(Report, RejectsUnlistedMetricAndNonFiniteValues)
{
    Report r;
    EXPECT_THROW(r.set("wall_seconds", 1.0), std::logic_error);
    r.set("wall_s", 0.0 / 0.0);
    EXPECT_EQ(r.get("wall_s"), 0.0);
    r.set("wall_s", 2.5);
    EXPECT_NE(r.json(kEndToEnd).find("\"wall_s\": {\"value\": 2.5, "
                                     "\"unit\": \"s\"}"),
              std::string::npos);
}

TEST(Seeds, ZeroKeepsSuiteSeedsAndOthersRemixDeterministically)
{
    EXPECT_EQ(remixSeed(205, 0), 205u);
    EXPECT_EQ(remixSeed(205, 7), remixSeed(205, 7));
    EXPECT_NE(remixSeed(205, 7), 205u);
    EXPECT_NE(remixSeed(205, 7), remixSeed(205, 8));
    EXPECT_NE(remixSeed(205, 7), remixSeed(206, 7));
}
