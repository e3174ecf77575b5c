// Dense tables keyed by sequential ids.
//
// Every id in the simulator is minted by a counter (common::IdAllocator
// or a local `next_*_++`), so a table keyed by one can find an entry by
// index arithmetic instead of hashing.  IdMap<Id, T> stores its entries
// in place in pages of about kPageBytes bytes — the entry count per page
// follows from sizeof(value_type), not the other way round — with a
// live bitmask per page.  A page is allocated on its first insert (its
// storage is never value-initialised) and freed when its last entry is
// erased; a directory of page pointers indexed by `id / entries-per-page`
// locates it, and leading empty directory slots are trimmed so a table
// keyed by a monotonic counter tracks only its live window.
//
// Guarantees the call sites rely on:
//   * element addresses are stable until that element is erased —
//     coroutines hold references into these tables across co_await;
//   * iteration is in ascending id order, whatever the insertion order,
//     so a loop over a table decides event order the same way on every
//     standard library;
//   * erase(it) returns the next live entry; inserting or erasing other
//     entries never invalidates an iterator to a live entry.
//
// The interface is the std::unordered_map subset the simulator uses, so
// converting a table changes its declaration, not its users.  Ids must
// be small: the directory costs one pointer per page up to the largest
// id held, which is why tables keyed by cluster-wide request ids (SODA's
// ReqIds) stay hashed — see DESIGN.md §15 "Id tables".
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <new>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace common {

namespace detail {

template <typename Id>
[[nodiscard]] constexpr std::size_t id_index(Id id) {
  if constexpr (std::is_integral_v<Id>) {
    return static_cast<std::size_t>(id);
  } else {
    return static_cast<std::size_t>(id.value());
  }
}

// Ids past this bound are invalid sentinels or corrupt values; a table
// that accepted one would allocate a directory of billions of slots.
inline constexpr std::size_t kMaxIdIndex = std::size_t{1} << 32;

}  // namespace detail

template <typename Id, typename T>
class IdMap {
 public:
  using key_type = Id;
  using mapped_type = T;
  using value_type = std::pair<const Id, T>;
  using size_type = std::size_t;

  static constexpr std::size_t kPageBytes = 256;
  // Entries per page: as many as fit in kPageBytes (at least one), a
  // power of two so the id splits into page and slot by shift and mask,
  // and at most 64 so one word holds the live mask.
  static constexpr std::size_t kSlots = std::bit_floor(
      std::clamp<std::size_t>(kPageBytes / sizeof(value_type), 1, 64));

 private:
  static constexpr int kShift = std::countr_zero(kSlots);
  static constexpr std::size_t kSlotMask = kSlots - 1;
  static constexpr std::size_t kEndPage = ~std::size_t{0};

  struct Page {
    std::uint64_t live = 0;
    alignas(value_type) std::byte storage[kSlots * sizeof(value_type)];

    [[nodiscard]] value_type* at(std::size_t slot) {
      return std::launder(reinterpret_cast<value_type*>(storage)) + slot;
    }
    [[nodiscard]] bool has(std::size_t slot) const {
      return ((live >> slot) & 1u) != 0;
    }
  };

  template <bool Const>
  class Iter {
    using Map = std::conditional_t<Const, const IdMap, IdMap>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = IdMap::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;

    Iter() = default;
    // iterator -> const_iterator
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other)  // NOLINT(google-explicit-constructor)
        : map_(other.map_), page_(other.page_), slot_(other.slot_) {}

    [[nodiscard]] reference operator*() const {
      return *map_->page_at(page_)->at(slot_);
    }
    [[nodiscard]] pointer operator->() const { return &**this; }
    Iter& operator++() {
      *this = map_->template seek<Const>(page_, slot_ + 1);
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.page_ == b.page_ && a.slot_ == b.slot_;
    }

   private:
    friend class IdMap;
    Iter(Map* map, std::size_t page, std::size_t slot)
        : map_(map), page_(page), slot_(slot) {}

    Map* map_ = nullptr;
    std::size_t page_ = kEndPage;  // absolute page number (id >> kShift)
    std::size_t slot_ = 0;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  IdMap() = default;
  IdMap(const IdMap&) = delete;
  IdMap& operator=(const IdMap&) = delete;
  ~IdMap() { clear(); }

  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] iterator begin() { return seek<false>(base_, 0); }
  [[nodiscard]] iterator end() { return iterator(this, kEndPage, 0); }
  [[nodiscard]] const_iterator begin() const { return seek<true>(base_, 0); }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, kEndPage, 0);
  }

  [[nodiscard]] iterator find(const Id& id) {
    const std::size_t i = detail::id_index(id);
    Page* page = page_at(i >> kShift);
    if (page == nullptr || !page->has(i & kSlotMask)) return end();
    return iterator(this, i >> kShift, i & kSlotMask);
  }
  [[nodiscard]] const_iterator find(const Id& id) const {
    return const_cast<IdMap*>(this)->find(id);
  }
  [[nodiscard]] bool contains(const Id& id) const {
    const std::size_t i = detail::id_index(id);
    const Page* page = page_at(i >> kShift);
    return page != nullptr && page->has(i & kSlotMask);
  }

  [[nodiscard]] T& at(const Id& id) {
    auto it = find(id);
    if (it == end()) throw std::out_of_range("IdMap::at: no such id");
    return it->second;
  }
  [[nodiscard]] const T& at(const Id& id) const {
    return const_cast<IdMap*>(this)->at(id);
  }
  T& operator[](const Id& id) { return emplace(id).first->second; }

  // Constructs T from `args` unless `id` is present (what unordered_map
  // calls try_emplace).
  template <typename... Args>
  std::pair<iterator, bool> emplace(const Id& id, Args&&... args) {
    const std::size_t i = detail::id_index(id);
    RELYNX_ASSERT_MSG(i < detail::kMaxIdIndex, "IdMap: id out of range");
    const std::size_t p = i >> kShift;
    const std::size_t s = i & kSlotMask;
    Page* page = page_at(p);
    if (page != nullptr && page->has(s)) return {iterator(this, p, s), false};
    if (page == nullptr) page = add_page(p);
    try {
      ::new (static_cast<void*>(page->at(s)))
          value_type(std::piecewise_construct, std::forward_as_tuple(id),
                     std::forward_as_tuple(std::forward<Args>(args)...));
    } catch (...) {
      if (page->live == 0) release_page(p);
      throw;
    }
    page->live |= std::uint64_t{1} << s;
    ++size_;
    return {iterator(this, p, s), true};
  }

  size_type erase(const Id& id) {
    auto it = find(id);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }
  iterator erase(const_iterator pos) {
    const std::size_t p = pos.page_;
    const std::size_t s = pos.slot_;
    Page* page = page_at(p);
    RELYNX_ASSERT_MSG(page != nullptr && page->has(s), "IdMap: erase of end");
    // The successor lives in this page (which then survives the erase)
    // or a later one, so it can be found before anything is freed.
    const iterator next = seek<false>(p, s + 1);
    page->at(s)->~value_type();
    page->live &= ~(std::uint64_t{1} << s);
    --size_;
    if (page->live == 0) release_page(p);
    return next;
  }
  iterator erase(iterator pos) { return erase(const_iterator(pos)); }

  void clear() {
    for (Page* page : dir_) {
      if (page == nullptr) continue;
      for (std::uint64_t m = page->live; m != 0; m &= m - 1) {
        page->at(static_cast<std::size_t>(std::countr_zero(m)))->~value_type();
      }
      delete page;
    }
    dir_.clear();
    size_ = 0;
  }

  // Pages currently allocated (tests and memory accounting).
  [[nodiscard]] std::size_t page_count() const {
    return static_cast<std::size_t>(
        std::count_if(dir_.begin(), dir_.end(),
                      [](const Page* page) { return page != nullptr; }));
  }

 private:
  [[nodiscard]] Page* page_at(std::size_t p) const {
    const std::size_t d = p - base_;  // wraps for p < base_
    return d < dir_.size() ? dir_[d] : nullptr;
  }

  // First live entry at or after (page p, slot s), or end().
  template <bool Const>
  [[nodiscard]] Iter<Const> seek(std::size_t p, std::size_t s) const {
    using MapPtr = std::conditional_t<Const, const IdMap*, IdMap*>;
    auto* self = const_cast<MapPtr>(this);
    if (p < base_) {
      p = base_;
      s = 0;
    }
    for (std::size_t d = p - base_; d < dir_.size(); ++d, s = 0) {
      const Page* page = dir_[d];
      if (page == nullptr || s >= kSlots) continue;
      const std::uint64_t m = page->live >> s;
      if (m != 0) {
        return Iter<Const>(self, base_ + d,
                           s + static_cast<std::size_t>(std::countr_zero(m)));
      }
    }
    return Iter<Const>(self, kEndPage, 0);
  }

  Page* add_page(std::size_t p) {
    if (dir_.empty()) {
      base_ = p;
    } else if (p < base_) {
      dir_.insert(dir_.begin(), base_ - p, nullptr);
      base_ = p;
    }
    if (p - base_ >= dir_.size()) dir_.resize(p - base_ + 1, nullptr);
    Page* page = new Page;  // default-init: storage stays uninitialised
    dir_[p - base_] = page;
    return page;
  }

  void release_page(std::size_t p) {
    const std::size_t d = p - base_;
    delete dir_[d];
    dir_[d] = nullptr;
    if (d != 0) return;
    // Trim the empty prefix: a counter-keyed table's live window slides
    // up, and the directory should slide with it.
    const auto first = std::find_if(dir_.begin(), dir_.end(),
                                    [](const Page* pg) { return pg != nullptr; });
    base_ += static_cast<std::size_t>(first - dir_.begin());
    dir_.erase(dir_.begin(), first);
  }

  std::vector<Page*> dir_;
  std::size_t base_ = 0;  // page number of dir_[0]
  std::size_t size_ = 0;
};

// Membership set over the same ids: one bit per id up to the largest
// inserted.  Sized for process ids and other small dense spaces.
template <typename Id>
class IdSet {
 public:
  using key_type = Id;
  using size_type = std::size_t;

  // Returns true if `id` was newly inserted.
  bool insert(const Id& id) {
    const std::size_t i = detail::id_index(id);
    RELYNX_ASSERT_MSG(i < detail::kMaxIdIndex, "IdSet: id out of range");
    if ((i >> 6) >= words_.size()) words_.resize((i >> 6) + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((words_[i >> 6] & bit) != 0) return false;
    words_[i >> 6] |= bit;
    ++size_;
    return true;
  }
  size_type erase(const Id& id) {
    if (!contains(id)) return 0;
    const std::size_t i = detail::id_index(id);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    --size_;
    return 1;
  }
  [[nodiscard]] bool contains(const Id& id) const {
    const std::size_t i = detail::id_index(id);
    return (i >> 6) < words_.size() &&
           ((words_[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace common
