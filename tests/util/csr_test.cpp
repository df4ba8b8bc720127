/// util::csr_scatter against a reference: the items with a non-negative
/// key, std::stable_sort-ed by key. Random keys with skips, empty rows,
/// zero keys, zero items, both offset types, and output vectors that
/// already hold data must all give the reference rows, each in emission
/// order.

#include "util/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace logstruct::util {
namespace {

struct Item {
  std::int32_t key;  ///< negative: skipped
  std::int64_t value;
};

/// Random items: keys in [-skip_span, num_keys), values a random payload
/// so that a reordered row cannot pass by accident.
std::vector<Item> random_items(Rng& rng, std::size_t n, std::int32_t num_keys,
                               std::int32_t skip_span) {
  std::vector<Item> items(n);
  for (Item& it : items) {
    it.key = static_cast<std::int32_t>(
        rng.uniform_range(-skip_span, static_cast<std::int64_t>(num_keys) - 1));
    it.value = static_cast<std::int64_t>(rng.next() >> 1);
  }
  return items;
}

template <typename Begin>
void expect_matches_reference(const std::vector<Item>& items,
                              std::size_t num_keys, std::vector<Begin>& begin,
                              std::vector<std::int64_t>& out) {
  csr_scatter(
      num_keys,
      [&](auto emit) {
        for (const Item& it : items) emit(it.key, it.value);
      },
      begin, out);

  std::vector<Item> kept;
  for (const Item& it : items)
    if (it.key >= 0) kept.push_back(it);
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  std::vector<std::int64_t> want_out;
  std::vector<Begin> want_begin(num_keys + 1, 0);
  for (const Item& it : kept) {
    want_out.push_back(it.value);
    ++want_begin[static_cast<std::size_t>(it.key) + 1];
  }
  for (std::size_t k = 1; k < want_begin.size(); ++k)
    want_begin[k] += want_begin[k - 1];
  EXPECT_EQ(begin, want_begin);
  EXPECT_EQ(out, want_out);
}

template <typename Begin>
void random_rounds() {
  Rng rng(0xC5A);
  for (int round = 0; round < 200; ++round) {
    const auto num_keys = static_cast<std::int32_t>(rng.uniform_range(1, 40));
    const auto n = static_cast<std::size_t>(rng.uniform_range(0, 300));
    // Every third round has no skipped keys; the others skip some.
    const std::int32_t skip_span = round % 3 == 0 ? 0 : 3;
    const std::vector<Item> items = random_items(rng, n, num_keys, skip_span);
    std::vector<Begin> begin;
    std::vector<std::int64_t> out;
    SCOPED_TRACE(round);
    expect_matches_reference(items, static_cast<std::size_t>(num_keys), begin,
                             out);
  }
}

TEST(CsrScatter, RandomKeysMatchStableSortInt32Offsets) {
  random_rounds<std::int32_t>();
}

TEST(CsrScatter, RandomKeysMatchStableSortInt64Offsets) {
  random_rounds<std::int64_t>();
}

TEST(CsrScatter, EmptyRowsZeroKeysAndZeroItems) {
  std::vector<std::int32_t> begin;
  std::vector<std::int64_t> out;
  // Rows 0, 2 and 4 stay empty between filled ones.
  expect_matches_reference({{1, 10}, {3, 30}, {1, 11}, {5, 50}}, 6, begin,
                           out);
  EXPECT_EQ(begin, (std::vector<std::int32_t>{0, 0, 2, 2, 3, 3, 4}));
  EXPECT_EQ(out, (std::vector<std::int64_t>{10, 11, 30, 50}));
  // No keys: every item must be skipped, and begin is the single 0.
  expect_matches_reference({{-1, 7}, {-3, 8}}, 0, begin, out);
  EXPECT_EQ(begin, (std::vector<std::int32_t>{0}));
  EXPECT_TRUE(out.empty());
  // No items: every row is empty.
  expect_matches_reference({}, 4, begin, out);
  EXPECT_EQ(begin, (std::vector<std::int32_t>(5, 0)));
  // Neither.
  expect_matches_reference({}, 0, begin, out);
  EXPECT_EQ(begin, (std::vector<std::int32_t>{0}));
}

TEST(CsrScatter, ReusedVectorsAreOverwrittenAndKeepCapacity) {
  Rng rng(77);
  std::vector<std::int64_t> begin(50, -9);
  std::vector<std::int64_t> out(500, -9);
  const std::int64_t* data = out.data();
  // Smaller than before: stale entries past the new size must go, and no
  // reallocation happens.
  expect_matches_reference(random_items(rng, 120, 7, 2), 7, begin, out);
  EXPECT_LE(out.size(), 120u);
  EXPECT_EQ(out.data(), data);
  // Larger than before, with the previous result still in place.
  expect_matches_reference(random_items(rng, 900, 60, 1), 60, begin, out);
  expect_matches_reference(random_items(rng, 30, 3, 0), 3, begin, out);
}

TEST(CsrScatter, RowsFollowEmissionOrderForNestedSources) {
  // Several items per source index, as a dependency stream or a
  // per-event sender list emits them: rows keep emission order.
  const std::vector<std::vector<std::int32_t>> targets = {
      {2, 0}, {}, {0, 0, 1}, {1}};
  std::vector<std::int32_t> begin;
  std::vector<std::int32_t> out;
  csr_scatter(
      3,
      [&](auto emit) {
        for (std::size_t i = 0; i < targets.size(); ++i)
          for (std::int32_t k : targets[i]) emit(k, i);
      },
      begin, out);
  EXPECT_EQ(begin, (std::vector<std::int32_t>{0, 3, 5, 6}));
  EXPECT_EQ(out, (std::vector<std::int32_t>{0, 2, 2, 2, 3, 0}));
}

}  // namespace
}  // namespace logstruct::util
