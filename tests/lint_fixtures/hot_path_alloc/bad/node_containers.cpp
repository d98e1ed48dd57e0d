// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Violating fixture: node-based and hashed containers in a hot-path-tagged
// file with no allow marker. Each of the four spellings must be flagged —
// every insert allocates a node and every lookup chases pointers, which is
// what flat, indexed state replaces on the hot path.
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

struct PerEventState {
  std::map<std::int64_t, int> index_of;
  std::set<std::int64_t> ahead;
  std::unordered_map<std::uint64_t, int> by_key;
  std::unordered_set<std::uint64_t> seen;
};

int lookups(const PerEventState& s, std::int64_t p) {
  return static_cast<int>(s.ahead.count(p) + s.index_of.count(p) +
                          s.by_key.count(static_cast<std::uint64_t>(p)) +
                          s.seen.count(static_cast<std::uint64_t>(p)));
}

}  // namespace fixture
