// VIOLATING fixture (rule: raw-thread): a raw std::thread escapes the
// sweep runner's deterministic join discipline.
#include <thread>

namespace fixture {

void spawn(int& out) {
  std::thread worker([&out] { out = 1; });
  worker.join();
}

}  // namespace fixture
