// A move-only vector with inline storage for the first N elements.
//
// Stream batches are usually short (a handful of tuples between flush
// triggers), so the common case must not touch the heap: elements live in an
// inline buffer until the N+1st push spills to a heap allocation. Unlike
// std::vector, moving a SmallVec whose elements are inline moves the elements
// (pointers into the buffer are not stable across moves).
#ifndef GENEALOG_COMMON_SMALL_VEC_H_
#define GENEALOG_COMMON_SMALL_VEC_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace genealog {

template <typename T, size_t N>
class SmallVec {
 public:
  SmallVec() = default;

  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  SmallVec(SmallVec&& other) noexcept { MoveFrom(other); }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  ~SmallVec() { Reset(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    new (data_ + size_) T(std::move(value));
    ++size_;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow(capacity_ * 2);
    T* slot = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    assert(size_ > 0);
    std::destroy_at(data_ + --size_);
  }

  // Destroys the elements; keeps the current (possibly heap) buffer.
  void clear() {
    std::destroy_n(data_, size_);
    size_ = 0;
  }

  // Destroys every element past the first n (n must not exceed size()).
  void truncate(size_t n) {
    assert(n <= size_);
    std::destroy(data_ + n, data_ + size_);
    size_ = n;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  // Appends by moving every element out of `other`; `other` is left empty.
  void AppendMoved(SmallVec& other) {
    reserve(size_ + other.size_);
    for (size_t i = 0; i < other.size_; ++i) {
      new (data_ + size_ + i) T(std::move(other.data_[i]));
    }
    size_ += other.size_;
    other.clear();
  }

 private:
  T* InlineData() { return std::launder(reinterpret_cast<T*>(inline_)); }
  bool IsInline() const {
    return data_ == const_cast<SmallVec*>(this)->InlineData();
  }

  // Heap buffers honour alignof(T), which plain ::operator new(size) only
  // guarantees up to the default new-alignment.
  static T* Allocate(size_t n) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    } else {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
  }
  static void Deallocate(T* p) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, std::align_val_t(alignof(T)));
    } else {
      ::operator delete(p);
    }
  }

  void Grow(size_t new_capacity) {
    if (new_capacity < size_ + 1) new_capacity = size_ + 1;
    T* heap = Allocate(new_capacity);
    for (size_t i = 0; i < size_; ++i) {
      new (heap + i) T(std::move(data_[i]));
    }
    std::destroy_n(data_, size_);
    if (!IsInline()) Deallocate(data_);
    data_ = heap;
    capacity_ = new_capacity;
  }

  // Destroys elements and releases any heap buffer, returning to the empty
  // inline state.
  void Reset() {
    clear();
    if (!IsInline()) {
      Deallocate(data_);
      data_ = InlineData();
      capacity_ = N;
    }
  }

  void MoveFrom(SmallVec& other) noexcept {
    if (other.IsInline()) {
      for (size_t i = 0; i < other.size_; ++i) {
        new (data_ + i) T(std::move(other.data_[i]));
      }
      size_ = other.size_;
      other.clear();
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.InlineData();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = InlineData();
  size_t size_ = 0;
  size_t capacity_ = N;
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_SMALL_VEC_H_
