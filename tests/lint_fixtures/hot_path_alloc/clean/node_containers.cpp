// streamcast: hot-path (lint: hot-path-alloc applies to this file)
//
// Clean fixture: a hot-path-tagged file whose per-event state is flat and
// indexed (a bitmap word array, a vector indexed by a dense id), and whose
// one remaining node-based container is visibly declared cold with an allow
// marker — same-line or on the line above.
#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

namespace fixture {

struct PerEventState {
  // lint: allow(hot-path-alloc) — grown as a bitmap, one bit per id
  std::vector<std::uint64_t> held_words;
  std::vector<int> by_dense_id;  // lint: allow(hot-path-alloc)
  // lint: allow(hot-path-alloc) — cold: touched once per run
  std::map<int, int> configuration;
  std::unordered_set<std::uint64_t> rare_ids;  // lint: allow(hot-path-alloc)
};

bool held(const PerEventState& s, std::int64_t p) {
  const auto w = static_cast<std::size_t>(p >> 6);
  return w < s.held_words.size() && ((s.held_words[w] >> (p & 63)) & 1u);
}

}  // namespace fixture
