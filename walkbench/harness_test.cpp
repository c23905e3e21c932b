/**
 * @file
 * Tests of the benchmark's own helpers (harness.hpp): the percentile
 * rule, span self time and cross-thread overlap, digest order
 * independence, the chi-square check and the result line.  The
 * metric-name check lives in run.py --self-test, next to BENCHMARK.json.
 */
#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hpp"

namespace walkbench {
namespace {

std::vector<double>
one_to(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), std::mt19937(7));
    return v;
}

TEST(TailPercentile, P99NeedsTenSamplesBeyondIt)
{
    const Percentile p = tail_percentile(one_to(1000), 0.99);
    EXPECT_DOUBLE_EQ(p.rank, 0.99);
    EXPECT_DOUBLE_EQ(p.value, 990.0); // exactly 10 samples above it
    EXPECT_EQ(p.samples, 1000u);
}

TEST(TailPercentile, FallsBackToTheHighestQualifyingPercentile)
{
    const Percentile p = tail_percentile(one_to(999), 0.99);
    EXPECT_DOUBLE_EQ(p.rank, 0.95);
    EXPECT_DOUBLE_EQ(p.value, 950.0);
    EXPECT_EQ(p.samples, 999u);

    const Percentile p999 = tail_percentile(one_to(20000), 0.999);
    EXPECT_DOUBLE_EQ(p999.rank, 0.999);
    EXPECT_DOUBLE_EQ(p999.value, 19980.0);
}

TEST(TailPercentile, NeverReportsAboveTheWantedRank)
{
    const Percentile p = tail_percentile(one_to(100000), 0.5);
    EXPECT_DOUBLE_EQ(p.rank, 0.5);
    EXPECT_DOUBLE_EQ(p.value, 50000.0);
}

TEST(TailPercentile, ATailNeverFallsBackToTheMedian)
{
    // 50 samples: 90th has only 5 beyond it; the median would qualify
    // but is not a tail, so the maximum is reported.
    const Percentile p = tail_percentile(one_to(50), 0.99);
    EXPECT_DOUBLE_EQ(p.rank, 1.0);
    EXPECT_DOUBLE_EQ(p.value, 50.0);
}

TEST(TailPercentile, TooFewSamplesReportsTheMaximum)
{
    const Percentile p = tail_percentile(one_to(5), 0.99);
    EXPECT_DOUBLE_EQ(p.rank, 1.0);
    EXPECT_DOUBLE_EQ(p.value, 5.0);
    EXPECT_EQ(p.samples, 5u);
    EXPECT_EQ(tail_percentile({}, 0.99).samples, 0u);
}

TEST(ChunkedP99, OneStalledChunkDoesNotMoveIt)
{
    std::vector<double> v(4000, 1.0);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] += double(i % 100) / 100.0; // p99 of every chunk: 1.98
    }
    EXPECT_DOUBLE_EQ(chunked_p99(v), 1.98);
    for (std::size_t i = 1500; i < 1560; ++i) {
        v[i] = 100.0; // a stall delays 60 consecutive requests
    }
    EXPECT_DOUBLE_EQ(tail_percentile(v, 0.99).value, 100.0);
    EXPECT_DOUBLE_EQ(chunked_p99(v), 1.98);
    // Under 2000 samples it is the plain p99.
    const std::vector<double> few = one_to(1500);
    EXPECT_DOUBLE_EQ(chunked_p99(few), tail_percentile(few, 0.99).value);
}

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Spans, UnionMergesOverlapsAndSkipsEmpties)
{
    EXPECT_DOUBLE_EQ(
        union_seconds({{0, 10}, {5, 20}, {30, 40}, {50, 50}, {35, 36}}),
        30e-9);
    EXPECT_DOUBLE_EQ(union_seconds({}), 0.0);
}

Span
span(std::uint64_t id, std::uint64_t parent, std::uint32_t thread,
     std::int64_t begin, std::int64_t end)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.thread = thread;
    s.begin_ns = begin;
    s.end_ns = end;
    return s;
}

TEST(Spans, SelfTimeSubtractsOnlySameThreadChildren)
{
    const Span run = span(1, 0, 1, 0, 100);
    const std::vector<Span> spans = {
        run,
        span(2, 1, 1, 10, 30), // same thread: subtracted
        span(3, 1, 1, 20, 40), // overlaps the previous one
        span(4, 1, 2, 50, 150), // loader thread: overlap, clipped at 100
        span(5, 1, 3, 60, 70),  // another loader, inside the previous
        span(6, 9, 1, 0, 100),  // someone else's child: ignored
    };
    const SpanTime t = span_time(run, spans);
    EXPECT_DOUBLE_EQ(t.total_s, 100e-9);
    EXPECT_DOUBLE_EQ(t.self_s, 70e-9);
    EXPECT_DOUBLE_EQ(t.overlap_s, 50e-9);
}

TEST(Spans, TracerRecordsOnlyWhileEnabled)
{
    Tracer tracer;
    {
        ScopedSpan off(tracer, "off");
        EXPECT_EQ(off.id(), 0u);
    }
    tracer.set_enabled(true);
    std::uint64_t id = 0;
    {
        ScopedSpan on(tracer, "on", 0, 42);
        id = on.id();
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].id, id);
    EXPECT_EQ(spans[0].arg, 42u);
    EXPECT_LE(spans[0].begin_ns, spans[0].end_ns);
}

TEST(Digest, IndependentOfOrder)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        pairs.emplace_back(i, mix64(i) % 32768);
    }
    Digest in_order;
    for (const auto &[k, v] : pairs) {
        in_order.add(k, v);
    }
    std::shuffle(pairs.begin(), pairs.end(), std::mt19937(3));
    Digest shuffled;
    for (const auto &[k, v] : pairs) {
        shuffled.add(k, v);
    }
    EXPECT_EQ(in_order, shuffled);
    EXPECT_EQ(in_order.value(), shuffled.value());
}

TEST(Digest, SensitiveToValuesAndKeys)
{
    Digest a, b, c;
    a.add(1, 10);
    a.add(2, 20);
    b.add(1, 10);
    b.add(2, 21);
    c.add(1, 20);
    c.add(2, 10); // values swapped between walkers
    EXPECT_NE(a.value(), b.value());
    EXPECT_NE(a.value(), c.value());
    EXPECT_NE(hash_sequence({1, 2}), hash_sequence({2, 1}));
}

TEST(ChiSquare, IdenticalSamplesScoreZero)
{
    const std::vector<std::uint64_t> h = {100, 200, 0, 50};
    const auto [stat, dof] = chi_square_two_sample(h, h);
    EXPECT_DOUBLE_EQ(stat, 0.0);
    EXPECT_DOUBLE_EQ(dof, 2.0); // three non-empty bins
}

TEST(ChiSquare, BoundTracksTheUpperTail)
{
    // Tabulated chi-square 0.999 quantiles: dof 10 → 29.59, 100 → 149.4.
    EXPECT_NEAR(chi_square_bound(10, 3.09), 29.59, 0.6);
    EXPECT_NEAR(chi_square_bound(100, 3.09), 149.4, 1.0);
    const auto [stat, dof] = chi_square_two_sample({1000, 0}, {0, 1000});
    EXPECT_GT(stat, chi_square_bound(dof, 4.75));
}

TEST(ResultLine, KeepsEveryDigit)
{
    const std::string line =
        result_json(true, 3, 0, {{"a_ms", "ms", 1.0 / 3.0}, {"b", "B", 2}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                    "\"metrics\": {\"a_ms\": {\"value\": "
                    "0.33333333333333331, \"unit\": \"ms\"}, \"b\": "
                    "{\"value\": 2, \"unit\": \"B\"}}}");
}

} // namespace
} // namespace walkbench
