#pragma once

/// \file csr.hpp
/// The one CSR grouping: a stable counting scatter.
///
/// The "items grouped by block / chare / PE / partition / phase /
/// window" lists are built here: count each key's items, prefix-sum the
/// counts into row offsets, then place every item at its row's cursor.
/// Callers may rely on the contract below and nothing else: any per-row
/// order beyond it (time order, (begin, id) order) is the caller's sort.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

namespace logstruct::util {

/// Groups items into CSR rows by key: row k is out[begin[k], begin[k + 1])
/// for k in [0, num_keys), and begin has num_keys + 1 entries.
///
/// `each(emit)` calls `emit(key, value)` once per item. It runs twice
/// (count, then place) and must emit the same items in the same order
/// both times. An item with a negative key is skipped; every other key
/// must be below num_keys.
///
/// Stable: row k lists the values of the items keyed k in emission
/// order. For items emitted by ascending index i in [0, n), row k lists
/// value(i) for each i with key(i) == k, in ascending i.
///
/// `begin` and `out` are the caller's and are resized, not rebuilt, so
/// reused scratch keeps its capacity. No cursor copy is made: placing
/// moves each row's offset to its end, and a shift by one restores them.
template <typename Begin, typename Value, typename Each>
void csr_scatter(std::size_t num_keys, Each&& each, std::vector<Begin>& begin,
                 std::vector<Value>& out) {
  begin.assign(num_keys + 1, Begin{0});
  each([&](auto key, const auto&) {
    const auto k = static_cast<std::int64_t>(key);
    if (k >= 0) ++begin[static_cast<std::size_t>(k) + 1];
  });
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  out.resize(static_cast<std::size_t>(begin.back()));
  each([&](auto key, auto&& value) {
    const auto k = static_cast<std::int64_t>(key);
    if (k >= 0)
      out[static_cast<std::size_t>(begin[static_cast<std::size_t>(k)]++)] =
          static_cast<Value>(value);
  });
  std::copy_backward(begin.begin(), begin.end() - 1, begin.end());
  begin[0] = 0;
}

}  // namespace logstruct::util
