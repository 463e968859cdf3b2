// Monotonic per-cone arena — the allocation backbone of the packed
// engine.
//
// Backward rewriting has a textbook arena lifetime: every table, bucket
// and scratch buffer a cone's extraction touches dies together when the
// cone finishes.  MonotonicArena is a chunked bump allocator exploiting
// that: allocate() is a pointer increment, nothing is ever freed
// individually, and reset() rewinds to the first chunk while *keeping*
// the chunk chain — so the second cone on a thread reuses the first
// cone's memory and performs zero steady-state heap allocations (the
// acceptance property tests/test_simd_kernels.cpp asserts).
//
// ArenaVector<T> is the minimal growable array over an arena for
// trivially-copyable T: grow abandons the old block (monotonic arenas
// don't reclaim) and memcpys into a doubled one.  Waste is bounded by
// the usual 2x geometric argument and vanishes at the next reset().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace gfre::anf {

class MonotonicArena {
 public:
  static constexpr std::size_t kDefaultFirstChunk = std::size_t{1} << 16;

  explicit MonotonicArena(std::size_t first_chunk_bytes = kDefaultFirstChunk)
      : next_chunk_bytes_(first_chunk_bytes < kMinChunk ? kMinChunk
                                                        : first_chunk_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  ~MonotonicArena() {
    Chunk* c = head_;
    while (c != nullptr) {
      Chunk* next = c->next;
      ::operator delete(static_cast<void*>(c));
      c = next;
    }
  }

  /// Bump-allocates `bytes` aligned to `align` (a power of two).  Never
  /// returns null; grows the chunk chain on exhaustion.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = reinterpret_cast<std::uintptr_t>(ptr_);
    p = (p + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    if (p + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
      refill(bytes + align);
      p = reinterpret_cast<std::uintptr_t>(ptr_);
      p = (p + (align - 1)) & ~static_cast<std::uintptr_t>(align - 1);
    }
    ptr_ = reinterpret_cast<char*>(p + bytes);
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* allocate_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destroyed element-wise");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to the start of the chain, keeping every chunk for reuse.
  void reset() {
    current_ = head_;
    if (current_ != nullptr) {
      ptr_ = current_->data();
      end_ = ptr_ + current_->size;
    } else {
      ptr_ = end_ = nullptr;
    }
  }

  /// Total bytes held in chunks (the steady-state footprint).
  std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk* c = head_; c != nullptr; c = c->next) total += c->size;
    return total;
  }

  std::size_t chunk_count() const {
    std::size_t n = 0;
    for (const Chunk* c = head_; c != nullptr; c = c->next) ++n;
    return n;
  }

 private:
  static constexpr std::size_t kMinChunk = 4096;

  struct alignas(std::max_align_t) Chunk {
    Chunk* next;
    std::size_t size;  // payload bytes after the header
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  /// Moves to a chunk with at least `needed` payload bytes: first tries
  /// the already-owned tail of the chain (post-reset reuse), then mints a
  /// geometrically larger chunk and splices it in right after current_
  /// (the skipped-over remainder of the chain stays owned for later).
  void refill(std::size_t needed) {
    Chunk* next = current_ != nullptr ? current_->next : head_;
    if (next != nullptr && next->size >= needed) {
      current_ = next;
    } else {
      std::size_t payload = next_chunk_bytes_;
      if (payload < needed) payload = needed;
      next_chunk_bytes_ = payload * 2;
      void* raw = ::operator new(sizeof(Chunk) + payload);
      Chunk* fresh = static_cast<Chunk*>(raw);
      fresh->size = payload;
      if (current_ != nullptr) {
        fresh->next = current_->next;
        current_->next = fresh;
      } else {
        fresh->next = head_;
        head_ = fresh;
      }
      current_ = fresh;
    }
    ptr_ = current_->data();
    end_ = ptr_ + current_->size;
  }

  Chunk* head_ = nullptr;
  Chunk* current_ = nullptr;
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  std::size_t next_chunk_bytes_;
};

/// Growable array over a MonotonicArena for trivially-copyable elements.
/// clear() is O(1) (no destructors by construction); grow memcpys into a
/// doubled arena block and abandons the old one until the next reset().
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  ArenaVector() = default;
  explicit ArenaVector(MonotonicArena& arena) : arena_(&arena) {}

  void attach(MonotonicArena& arena) {
    arena_ = &arena;
    data_ = nullptr;
    size_ = cap_ = 0;
  }

  void push_back(const T& value) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = value;
  }

  T& emplace_back() {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_] = T{};
    return data_[size_++];
  }

  void pop_back() { --size_; }
  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void grow(std::size_t need) {
    std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    if (new_cap < need) new_cap = need;
    T* fresh = arena_->allocate_array<T>(new_cap);
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;
    cap_ = new_cap;
  }

  MonotonicArena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace gfre::anf
