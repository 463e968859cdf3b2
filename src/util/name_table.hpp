// Dense name interning: each distinct name gets an id, numbered 0, 1, 2, ...
// in first-seen order, and is stored exactly once.
//
// Open addressing with linear probing over slots {hash tag, id}; the table
// keeps its load at or below one half, so a miss ends at an empty slot
// within a probe or two.  A slot's position is its tag masked to the
// capacity, which lets a rehash move slots without touching (or hashing)
// the names again; the full 32-bit tag filters string compares.
//
// The netlist (its nets are the ids) and the frontend's GraphBuilder (one
// id per source name) both sit on this table, so a name is hashed and
// copied once on its way from the parser to the Netlist.  Not thread-safe
// for writers; concurrent readers are fine.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace gfre::util {

class NameTable {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = ~Id{0};

  struct Interned {
    Id id;
    bool added;  ///< true when this call created the id
  };

  /// The id of `name`, creating it (next dense id) on first sight.
  Interned intern(std::string_view name) {
    if (2 * (names_.size() + 1) > slots_.size()) grow();
    const std::uint32_t tag = hash(name);
    std::size_t i = tag & mask();
    for (;; i = (i + 1) & mask()) {
      const Slot s = slots_[i];
      if (s.id == kNone) break;
      if (s.tag == tag && names_[s.id] == name) return {s.id, false};
    }
    const Id id = static_cast<Id>(names_.size());
    names_.emplace_back(name);
    slots_[i] = Slot{tag, id};
    return {id, true};
  }

  /// The id of `name`, or kNone.
  Id find(std::string_view name) const {
    if (slots_.empty()) return kNone;
    const std::uint32_t tag = hash(name);
    for (std::size_t i = tag & mask();; i = (i + 1) & mask()) {
      const Slot s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && names_[s.id] == name) return s.id;
    }
  }

  const std::string& name(Id id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  struct Slot {
    std::uint32_t tag;
    Id id;
  };

  static std::uint32_t hash(std::string_view name) {
    const std::uint64_t h = std::hash<std::string_view>{}(name);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }
  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    GFRE_ASSERT(capacity <= (std::size_t{1} << 32),
                "name table over " << (capacity / 2) << " names");
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{0, kNone});
    for (const Slot s : old) {
      if (s.id == kNone) continue;
      std::size_t i = s.tag & mask();
      while (slots_[i].id != kNone) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<std::string> names_;  ///< names_[id]
  std::vector<Slot> slots_;         ///< power-of-two capacity, or empty
};

}  // namespace gfre::util
