#pragma once

/// \file column.hpp
/// Typed read access over blocked columns, and the backend-neutral view
/// the Trace accessors hand out.
///
/// Three pieces:
///  - PinnedSpan<T>: a contiguous range plus the shared_ptr that keeps
///    its backing buffer alive. For the mem backend the keepalive is
///    empty (the Trace owns the vector); for the blocked backend it pins
///    a cached block — or an owned copy when the range straddles blocks —
///    so eviction can never invalidate a span a reader still holds.
///  - BlockedColumn<T>: element reads over one column of a BlockStore.
///    get(i) and single-block pin() run through a thread-local cursor,
///    one slot per ColumnId, so scans touch the shared cache once per
///    block, not once per element or per range, even when they
///    interleave several columns.
///  - ColumnView<T>: what accessors like Trace::events() return. Wraps
///    either a raw pointer (mem) or a BlockedColumn (blocked) behind
///    size()/operator[]/input iterators, so `for (const T& x : view)`
///    and indexed loops compile unchanged against both backends.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <type_traits>

#include "trace/storage/block_cache.hpp"

namespace logstruct::trace::storage {

template <typename T>
struct PinnedSpan {
  static_assert(std::is_trivially_copyable_v<T>);

  std::shared_ptr<const void> keepalive;
  const T* ptr = nullptr;
  std::size_t count = 0;

  [[nodiscard]] const T* begin() const { return ptr; }
  [[nodiscard]] const T* end() const { return ptr + count; }
  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] const T& front() const { return ptr[0]; }
  [[nodiscard]] const T& back() const { return ptr[count - 1]; }
  const T& operator[](std::size_t i) const { return ptr[i]; }
};

namespace detail {

/// Thread-local cursor: the last block each column touched on this
/// thread, one slot per ColumnId. The generation check keeps a slot from
/// serving another store's block; the shared_ptr doubles as a pin, so at
/// most kNumColumns blocks per thread are held against eviction.
struct CursorSlot {
  std::uint64_t generation = 0;  // 0 = empty (generations start at 1)
  std::size_t block = 0;
  std::shared_ptr<const char[]> data;
};

inline CursorSlot& cursor_slot(ColumnId col) {
  thread_local CursorSlot slots[kNumColumns];
  return slots[static_cast<std::uint32_t>(col)];
}

}  // namespace detail

template <typename T>
class BlockedColumn {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  BlockedColumn() = default;
  BlockedColumn(const BlockStore* store, ColumnId col)
      : store_(store),
        col_(col),
        size_(store->column_bytes(col) / sizeof(T)),
        per_block_(store->column_payload(col) >= sizeof(T)
                       ? store->column_payload(col) / sizeof(T)
                       : 1) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  /// One element by value, through the thread-local cursor.
  [[nodiscard]] T get(std::size_t i) const {
    const char* data = cursor(i / per_block_).data.get();
    T out;
    std::memcpy(&out, data + (i % per_block_) * sizeof(T), sizeof(T));
    return out;
  }

  /// Pin [lo, hi) as one contiguous span. A range inside a single block
  /// aliases the block in the cursor slot, so a sweep of short ranges
  /// reaches the shared cache once per block; a straddling range is
  /// copied into an owned buffer (both stay valid while the span is
  /// held, whatever the cursor or the cache does next).
  [[nodiscard]] PinnedSpan<T> pin(std::size_t lo, std::size_t hi) const {
    const std::size_t count = hi - lo;
    if (count == 0) return {};
    const std::size_t first = lo / per_block_;
    const std::size_t last = (hi - 1) / per_block_;
    if (first == last) {
      const std::shared_ptr<const char[]>& data = cursor(first).data;
      const T* base = reinterpret_cast<const T*>(data.get());
      return {std::shared_ptr<const void>(data, data.get()),
              base + (lo - first * per_block_), count};
    }
    std::shared_ptr<T[]> buf(new T[count]);
    std::size_t out = 0;
    for (std::size_t idx = lo; idx < hi;) {
      const std::size_t blk = idx / per_block_;
      const std::size_t off = idx % per_block_;
      const std::size_t room = per_block_ - off;
      const std::size_t take = room < hi - idx ? room : hi - idx;
      CachedBlock b = BlockCache::global().get(
          *store_, col_, static_cast<std::uint32_t>(blk));
      std::memcpy(buf.get() + out, b.data.get() + off * sizeof(T),
                  take * sizeof(T));
      out += take;
      idx += take;
    }
    const T* base = buf.get();
    return {std::shared_ptr<const void>(std::move(buf), base), base, count};
  }

  /// Visit the column as maximal contiguous chunks (one per block).
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    for (std::size_t base = 0; base < size_; base += per_block_) {
      const std::size_t n =
          per_block_ < size_ - base ? per_block_ : size_ - base;
      PinnedSpan<T> span = pin(base, base + n);
      fn(span.ptr, n, base);
    }
  }

 private:
  /// This thread's cursor slot for the column, moved to `blk` (one cache
  /// lookup) unless it already holds that block of this store.
  detail::CursorSlot& cursor(std::size_t blk) const {
    detail::CursorSlot& slot = detail::cursor_slot(col_);
    if (slot.generation != store_->generation() || slot.block != blk) {
      CachedBlock b = BlockCache::global().get(
          *store_, col_, static_cast<std::uint32_t>(blk));
      slot.data = std::move(b.data);
      slot.generation = store_->generation();
      slot.block = blk;
    }
    return slot;
  }

  const BlockStore* store_ = nullptr;
  ColumnId col_ = ColumnId::Events;
  std::size_t size_ = 0;
  std::size_t per_block_ = 1;
};

template <typename T>
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const T* data, std::size_t n) : mem_(data), size_(n) {}
  explicit ColumnView(const BlockedColumn<T>* col)
      : blocked_(col), size_(col->size()) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  T operator[](std::size_t i) const {
    if (mem_) [[likely]] return mem_[i];
    return blocked_get(i);
  }
  [[nodiscard]] T front() const { return (*this)[0]; }
  [[nodiscard]] T back() const { return (*this)[size_ - 1]; }

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = T;

    iterator() = default;
    iterator(const ColumnView* view, std::size_t i) : view_(view), i_(i) {}
    reference operator*() const { return (*view_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const ColumnView* view_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, size_}; }

  /// Visit the sequence as contiguous chunks: fn(ptr, count, base_index).
  template <typename Fn>
  void for_each_chunk(Fn&& fn) const {
    if (size_ == 0) return;
    if (mem_) {
      fn(mem_, size_, std::size_t{0});
      return;
    }
    blocked_->for_each_chunk(fn);
  }

 private:
  // Out of line so operator[]'s mem arm inlines to a bare load in hot
  // loops; the blocked arm pays one call on top of the cursor walk.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((noinline))
#endif
  T blocked_get(std::size_t i) const {
    return blocked_->get(i);
  }

  const T* mem_ = nullptr;
  const BlockedColumn<T>* blocked_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace logstruct::trace::storage
