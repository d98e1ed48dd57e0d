// CLEAN fixture (rule: overlay-seed): outside src/rrd and src/dyntree a
// literal seed is the point (tests pin their inputs).
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

std::uint64_t pinned() { return util::Prng(42).state; }

}  // namespace fixture
