// VIOLATING fixture (rule: rng): the C library generator is seeded and
// drawn through calls — no declaration carries an engine type, so only the
// textual half of the rule sees it.
#include <cstdlib>

namespace fixture {

int draw() {
  srand(1);
  return rand() % 6;
}

}  // namespace fixture
