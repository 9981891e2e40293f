// SmallVector<T, N>: vector with inline storage for the first N elements.
// VarRef selector chains (a handful of field/index steps) and transformer
// output bursts (1-3 records) are tiny in the common case; keeping them
// inline removes an allocation per trace line on the hot path. Size and
// capacity are 32-bit, which keeps the header at 16 bytes next to the
// inline elements; a request for more than max_size() elements throws
// std::length_error before anything is allocated.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace tdt {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "inline capacity must be positive");
  static_assert(N < std::numeric_limits<std::uint32_t>::max(),
                "inline capacity must fit the 32-bit counters");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept = default;

  SmallVector(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVector(const SmallVector& other) {
    reserve(other.size_);
    for (const T& v : other) push_back(v);
  }

  SmallVector(SmallVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    move_from(std::move(other));
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (const T& v : other) push_back(v);
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      destroy_all();
      move_from(std::move(other));
    }
    return *this;
  }

  ~SmallVector() { destroy_all(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] static constexpr std::size_t max_size() noexcept {
    return std::numeric_limits<std::uint32_t>::max();
  }
  /// True while elements still live in the inline buffer (no heap spill).
  [[nodiscard]] bool is_inline() const noexcept { return data_ == inline_ptr(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }

  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T& front() noexcept { return data_[0]; }
  const T& front() const noexcept { return data_[0]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      // Doubling in 64 bits, capped at max_size(); only a full vector at
      // max_size() fails.
      grow(std::max(std::min(std::size_t{capacity_} * 2, max_size()),
                    std::size_t{size_} + 1));
    }
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() noexcept {
    data_[--size_].~T();
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void resize(std::size_t n) {
    reserve(n);
    while (size_ < n) emplace_back();
    while (size_ > n) pop_back();
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* inline_ptr() noexcept { return std::launder(reinterpret_cast<T*>(inline_storage_)); }
  const T* inline_ptr() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void grow(std::size_t new_cap) {
    if (new_cap > max_size()) {
      throw std::length_error("SmallVector: more than 2^32 - 1 elements");
    }
    new_cap = std::max(new_cap, N + 1);
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (!is_inline()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = static_cast<std::uint32_t>(new_cap);
  }

  void move_from(SmallVector&& other) {
    if (other.is_inline()) {
      data_ = inline_ptr();
      capacity_ = N;
      size_ = 0;
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        ++size_;
      }
      other.clear();
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_ptr();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  void destroy_all() noexcept {
    clear();
    if (!is_inline()) {
      ::operator delete(data_);
      data_ = inline_ptr();
      capacity_ = N;
    }
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_ptr();
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
};

}  // namespace tdt
