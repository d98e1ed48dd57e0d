// CLEAN fixture (rule: overlay-seed): the overlay threads the caller's
// seed into every Prng.
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

std::uint64_t build(std::uint64_t seed) {
  util::Prng rng(seed);
  return rng.state;
}

}  // namespace fixture
