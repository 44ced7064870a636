// hdr_histogram (DESIGN.md, "Traffic edge & admission control"): log-linear
// bucketing over the full non-negative int64 range. The contracts under
// test: every value round-trips into a bucket whose [lowest, highest]
// bounds contain it, quantile estimates stay within the documented relative
// error, and merge is exact and commutative (any merge order produces the
// bit-identical histogram — the property the campaign checksum relies on).
#include "util/hdr_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace hades {
namespace {

std::vector<std::int64_t> probe_values() {
  std::vector<std::int64_t> vs;
  for (std::int64_t v = 0; v < 2048; ++v) vs.push_back(v);
  for (unsigned p = 8; p < 63; ++p) {
    const std::int64_t two = std::int64_t{1} << p;
    vs.push_back(two - 1);
    vs.push_back(two);
    vs.push_back(two + 1);
    vs.push_back(two + (two >> 3));
  }
  vs.push_back(std::numeric_limits<std::int64_t>::max());
  rng r(17);
  for (int i = 0; i < 4096; ++i)
    vs.push_back(static_cast<std::int64_t>(r.next_u64() >> 1));
  return vs;
}

TEST(HdrHistogramTest, BucketBoundsContainTheValueAndRoundTrip) {
  for (const std::int64_t v : probe_values()) {
    const std::size_t slot = hdr_histogram::slot_of(v);
    ASSERT_LT(slot, hdr_histogram::slot_count) << "value " << v;
    const std::int64_t lo = hdr_histogram::lowest_equivalent(slot);
    const std::int64_t hi = hdr_histogram::highest_equivalent(slot);
    EXPECT_LE(lo, v) << "slot " << slot;
    EXPECT_GE(hi, v) << "slot " << slot;
    // The bounds themselves are in the bucket they bound.
    EXPECT_EQ(hdr_histogram::slot_of(lo), slot);
    EXPECT_EQ(hdr_histogram::slot_of(hi), slot);
  }
}

TEST(HdrHistogramTest, SlotIndexIsMonotoneAndBucketsTile) {
  // Consecutive buckets tile the range with no gap and no overlap.
  for (std::size_t i = 0; i + 1 < hdr_histogram::slot_count; ++i) {
    ASSERT_EQ(hdr_histogram::highest_equivalent(i) + 1,
              hdr_histogram::lowest_equivalent(i + 1))
        << "gap/overlap between slots " << i << " and " << i + 1;
  }
  auto vs = probe_values();
  std::sort(vs.begin(), vs.end());
  for (std::size_t i = 0; i + 1 < vs.size(); ++i)
    EXPECT_LE(hdr_histogram::slot_of(vs[i]), hdr_histogram::slot_of(vs[i + 1]));
}

TEST(HdrHistogramTest, RelativeErrorBoundHolds) {
  // Width of the bucket holding v is at most relative_error() x v (values
  // below 2^P sit in unit buckets, exact).
  for (const std::int64_t v : probe_values()) {
    if (v < static_cast<std::int64_t>(hdr_histogram::sub_buckets)) continue;
    const std::size_t slot = hdr_histogram::slot_of(v);
    const double width =
        static_cast<double>(hdr_histogram::highest_equivalent(slot) -
                            hdr_histogram::lowest_equivalent(slot));
    EXPECT_LE(width, hdr_histogram::relative_error() *
                         static_cast<double>(v) * (1.0 + 1e-12))
        << "value " << v;
  }
}

TEST(HdrHistogramTest, QuantilesTrackTheExactDistribution) {
  hdr_histogram h;
  rng r(99);
  std::vector<std::int64_t> exact;
  constexpr int n = 20'000;
  exact.reserve(n);
  for (int i = 0; i < n; ++i) {
    // A long-tailed latency-ish distribution spanning several decades.
    const auto v =
        static_cast<std::int64_t>(r.exponential(50'000.0)) + 200;
    exact.push_back(v);
    h.record(v);
  }
  ASSERT_EQ(h.total(), static_cast<std::uint64_t>(n));
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    // Same rank arithmetic as value_at_quantile.
    auto target = static_cast<std::uint64_t>(q * n + 0.5);
    if (target == 0) target = 1;
    if (target > n) target = n;
    const std::int64_t truth = exact[target - 1];
    const std::int64_t est = h.value_at_quantile(q);
    EXPECT_GE(est, truth) << "q=" << q;
    EXPECT_LE(static_cast<double>(est),
              static_cast<double>(truth) *
                      (1.0 + hdr_histogram::relative_error()) +
                  1.0)
        << "q=" << q;
  }
  EXPECT_LE(h.min(), exact.front());
  EXPECT_GE(h.max(), exact.back());
}

TEST(HdrHistogramTest, MergeIsExactAndCommutative) {
  hdr_histogram a1, b1, a2, b2;
  rng r(7);
  for (int i = 0; i < 5'000; ++i) {
    const auto va = static_cast<std::int64_t>(r.next_u64() % 1'000'000);
    const auto vb = static_cast<std::int64_t>(r.next_u64() % 50'000'000);
    a1.record(va);
    a2.record(va);
    b1.record(vb);
    b2.record(vb);
  }
  // a1 absorbs b1; b2 absorbs a2 — opposite orders, identical result.
  a1.merge(b1);
  b2.merge(a2);
  EXPECT_EQ(a1.total(), b2.total());
  EXPECT_EQ(a1.digest(), b2.digest());
  for (const double q : {0.5, 0.99})
    EXPECT_EQ(a1.value_at_quantile(q), b2.value_at_quantile(q));
  // Counts added exactly, bucket by bucket.
  for (std::size_t i = 0; i < hdr_histogram::slot_count; ++i)
    ASSERT_EQ(a1.count_at(i), a2.count_at(i) + b1.count_at(i));
}

TEST(HdrHistogramTest, EveryRowCountsAndMerges) {
  // The buckets form 57 rows of sub_half slots, one per power-of-two range.
  // One value at the top of each row, INT64_MAX in the last, reaches every
  // row; the reads and a merge into an empty histogram see all of them.
  constexpr std::size_t kRows = 57;
  ASSERT_EQ(hdr_histogram::slot_count, kRows * hdr_histogram::sub_half);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  hdr_histogram h;
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::size_t top = (r + 1) * hdr_histogram::sub_half - 1;
    const std::int64_t v = hdr_histogram::highest_equivalent(top);
    ASSERT_EQ(hdr_histogram::slot_of(v), top) << "row " << r;
    // The next value opens the next row.
    if (r + 1 < kRows)
      ASSERT_EQ(hdr_histogram::slot_of(v + 1), top + 1) << "row " << r;
    else
      ASSERT_EQ(v, kMax);
    h.record(v);
  }
  EXPECT_EQ(h.total(), kRows);
  const auto first = static_cast<std::int64_t>(hdr_histogram::sub_half - 1);
  EXPECT_EQ(h.min(), first);
  EXPECT_EQ(h.max(), kMax);
  EXPECT_EQ(h.value_at_quantile(0.0), first);
  EXPECT_EQ(h.value_at_quantile(1.0), kMax);

  hdr_histogram merged;
  merged.merge(h);
  EXPECT_EQ(merged.digest(), h.digest());
  EXPECT_EQ(merged.total(), kRows);
  for (std::size_t i = 0; i < hdr_histogram::slot_count; ++i)
    ASSERT_EQ(merged.count_at(i), h.count_at(i)) << "slot " << i;
}

TEST(HdrHistogramTest, DigestIsDeterministicAndDiscriminating) {
  hdr_histogram x, y;
  for (int i = 1; i <= 1000; ++i) {
    x.record(i * 37);
    y.record(i * 37);
  }
  EXPECT_EQ(x.digest(), y.digest());
  y.record(12'345'678);
  EXPECT_NE(x.digest(), y.digest());
}

}  // namespace
}  // namespace hades
