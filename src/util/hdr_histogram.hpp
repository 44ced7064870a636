// HDR-style latency histogram that holds only the ranges it counts
// (DESIGN.md, "Latency grading").
//
// Fixed log-linear bucketing over the full non-negative int64 nanosecond
// range: values below 2^P land in their own unit-width bucket, and every
// power-of-two "decade" above that is split into 2^(P-1) linear sub-buckets,
// so the recorded value is always within a relative error of 2^-(P-1) of the
// bucket it lands in (P = 8 gives <= 1/128 ~ 0.8%). The buckets form
// `row_count` rows of `sub_half` counts, one row per power-of-two range. The
// histogram itself is a table of row pointers (456 bytes at P = 8), and a
// row (1 KiB) is allocated, zeroed, the first time a value lands in it, so
// a histogram pays for the ranges its samples reach and no more. After
// that, `record` is a shift, a count-leading-zeros and one increment.
// `reserve` allocates the rows up front for callers that must not allocate
// once they start recording; `reset` keeps the rows.
//
// Per-shard instances are merged with `merge` (bucket-wise integer adds —
// commutative and exact, so the merged histogram is identical for any merge
// order, the same contract as running_stats::merge; campaign code still
// merges in node order by convention).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/fnv.hpp"

namespace hades {

template <unsigned Precision = 8>
class basic_hdr_histogram {
  static_assert(Precision >= 2 && Precision <= 14,
                "sub-bucket magnitude out of range");

 public:
  static constexpr std::uint64_t sub_buckets = 1ull << Precision;
  static constexpr std::uint64_t sub_half = sub_buckets / 2;
  /// Highest bucket shift for values up to 2^63 - 1.
  static constexpr unsigned max_shift = 63 - Precision;
  static constexpr std::size_t slot_count =
      static_cast<std::size_t>(max_shift + 2) * sub_half;
  /// Row `r` holds slots [r * sub_half, (r + 1) * sub_half): one
  /// power-of-two range of values.
  static constexpr std::size_t row_count = slot_count / sub_half;

  /// Guaranteed bound on |recorded - representative| / recorded.
  [[nodiscard]] static constexpr double relative_error() {
    return 1.0 / static_cast<double>(sub_half);
  }

  basic_hdr_histogram() = default;
  basic_hdr_histogram(const basic_hdr_histogram&) = delete;
  basic_hdr_histogram& operator=(const basic_hdr_histogram&) = delete;

  /// Bucket index of a value (negatives clamp to 0).
  [[nodiscard]] static constexpr std::size_t slot_of(std::int64_t value) {
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    // Smallest shift so that v >> shift fits in [0, sub_buckets): 0 for
    // values in the unit-resolution bottom bucket, else bit_width(v) - P
    // (the sub-bucket then lands in [sub_half, sub_buckets)).
    const unsigned width =
        64u - static_cast<unsigned>(std::countl_zero(v | (sub_buckets - 1)));
    const unsigned shift = width - Precision;
    if (shift == 0) return static_cast<std::size_t>(v);
    const std::uint64_t sub = v >> shift;  // in [sub_half, sub_buckets)
    return static_cast<std::size_t>((shift + 1) * sub_half +
                                    (sub - sub_half));
  }

  /// Lowest / highest value mapping to slot `i` (the bucket's bounds).
  [[nodiscard]] static constexpr std::int64_t lowest_equivalent(
      std::size_t i) {
    const auto [shift, sub] = decompose(i);
    return static_cast<std::int64_t>(sub << shift);
  }
  [[nodiscard]] static constexpr std::int64_t highest_equivalent(
      std::size_t i) {
    const auto [shift, sub] = decompose(i);
    return static_cast<std::int64_t>(((sub + 1) << shift) - 1);
  }

  void record(std::int64_t value) { record(value, 1); }
  void record(std::int64_t value, std::uint64_t times) {
    const std::size_t slot = slot_of(value);
    row(slot / sub_half)[slot % sub_half] += times;
  }

  /// Allocate every row up to the one that holds `highest`, so that
  /// recording values up to it never allocates.
  void reserve(std::int64_t highest) {
    for (std::size_t r = 0; r <= slot_of(highest) / sub_half; ++r) row(r);
  }

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < slot_count; ++i) n += count_at(i);
    return n;
  }
  [[nodiscard]] std::uint64_t count_at(std::size_t slot) const {
    const auto& counts = rows_[slot / sub_half];
    return counts != nullptr ? counts[slot % sub_half] : 0;
  }

  /// Value at quantile q in [0, 1] (highest equivalent value of the bucket
  /// holding the q-th recorded sample; 0 on an empty histogram).
  [[nodiscard]] std::int64_t value_at_quantile(double q) const {
    const std::uint64_t n = total();
    if (n == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    auto target = static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5);
    if (target == 0) target = 1;
    if (target > n) target = n;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < slot_count; ++i) {
      cum += count_at(i);
      if (cum >= target) return highest_equivalent(i);
    }
    return highest_equivalent(slot_count - 1);
  }

  [[nodiscard]] std::int64_t min() const {
    for (std::size_t i = 0; i < slot_count; ++i)
      if (count_at(i) != 0) return lowest_equivalent(i);
    return 0;
  }
  [[nodiscard]] std::int64_t max() const {
    for (std::size_t i = slot_count; i-- > 0;)
      if (count_at(i) != 0) return highest_equivalent(i);
    return 0;
  }

  /// Bucket-wise add. Exact and commutative: any merge order over a set of
  /// histograms produces the identical result. Allocates only the rows in
  /// which `o` holds a count.
  void merge(const basic_hdr_histogram& o) {
    for (std::size_t i = 0; i < slot_count; ++i)
      if (const std::uint64_t c = o.count_at(i); c != 0)
        row(i / sub_half)[i % sub_half] += c;
  }

  /// Zero every count; the rows stay for the values that follow.
  void reset() {
    for (const auto& counts : rows_)
      if (counts != nullptr)
        std::fill_n(counts.get(), sub_half, std::uint64_t{0});
  }

  /// FNV-1a over (slot, count) of the non-empty buckets — the deterministic
  /// fold the campaign checksum consumes.
  [[nodiscard]] std::uint64_t digest() const {
    fnv1a h;
    for (std::size_t i = 0; i < slot_count; ++i)
      if (const std::uint64_t c = count_at(i); c != 0) h.mix(i).mix(c);
    return h.value();
  }

 private:
  struct bucket_pos {
    unsigned shift;
    std::uint64_t sub;
  };
  [[nodiscard]] static constexpr bucket_pos decompose(std::size_t i) {
    if (i < sub_half) return {0, static_cast<std::uint64_t>(i)};
    const auto shift = static_cast<unsigned>(i / sub_half) - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(i % sub_half);
    if (shift == 0) return {0, sub + sub_half};
    return {shift, sub + sub_half};
  }

  /// Row `r`'s counts, allocated zeroed on first use.
  std::uint64_t* row(std::size_t r) {
    if (rows_[r] == nullptr) [[unlikely]]
      rows_[r] = std::make_unique<std::uint64_t[]>(sub_half);
    return rows_[r].get();
  }

  std::unique_ptr<std::uint64_t[]> rows_[row_count];
};

using hdr_histogram = basic_hdr_histogram<8>;
static_assert(sizeof(hdr_histogram) <= 512);

}  // namespace hades
