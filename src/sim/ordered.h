// Deterministic-iteration helpers for hash containers.
//
// Iterating a std::unordered_map/set directly makes the visit order an
// implementation detail of the hash table (bucket count, insertion history,
// library version). When that order feeds anything observable — lock grant
// order, scheduled wakeups, I/O issue order — replay determinism silently
// depends on it. These helpers snapshot the keys and sort them so the caller
// iterates in a defined order; simlint's unordered-iter rule points here.
#pragma once

#include <algorithm>
#include <vector>

namespace rlsim {

// Ascending copy of an associative container's keys. Works for both map-like
// (iterates pairs) and set-like (iterates keys) containers.
template <typename Container>
std::vector<typename Container::key_type> SortedKeys(const Container& c) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(c.size());
  // simlint: ordered-ok (order-independent collection; sorted below)
  for (const auto& entry : c) {
    if constexpr (requires { entry.first; }) {
      keys.push_back(entry.first);
    } else {
      keys.push_back(entry);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// A map's entries in ascending key order, as pointers into the map: one
// pass instead of SortedKeys followed by a lookup per key. The pointers stay
// valid while no entry is erased.
template <typename Map>
std::vector<const typename Map::value_type*> SortedEntries(const Map& m) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(m.size());
  // simlint: ordered-ok (order-independent collection; sorted below)
  for (const auto& entry : m) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

}  // namespace rlsim
