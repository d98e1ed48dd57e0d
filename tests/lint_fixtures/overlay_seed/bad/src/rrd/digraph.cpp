// VIOLATING fixture (rule: overlay-seed): inside src/rrd a Prng born from
// a literal disconnects the overlay from SessionConfig::seed.
#include <cstdint>

namespace util {
struct Prng {
  explicit Prng(std::uint64_t seed) : state(seed) {}
  std::uint64_t state;
};
}  // namespace util

namespace fixture {

std::uint64_t build() {
  util::Prng decimal(42);
  util::Prng hex{0x5eed};
  return decimal.state + hex.state + util::Prng(7).state;
}

}  // namespace fixture
