// CLEAN fixture (rule: raw-thread): std::jthread joins on scope exit, and
// std::thread::hardware_concurrency() is a query, not a spawn.
#include <thread>

namespace fixture {

unsigned spawn(int& out) {
  {
    std::jthread worker([&out] { out = 1; });
  }
  return std::thread::hardware_concurrency();
}

}  // namespace fixture
