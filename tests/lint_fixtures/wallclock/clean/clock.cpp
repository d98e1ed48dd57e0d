// CLEAN fixture (rule: wallclock): the monotonic clock may measure
// durations, and the banned names inside comments ("system_clock") or
// string literals are not reads.
#include <chrono>

namespace fixture {

double elapsed_s() {
  const auto start = std::chrono::steady_clock::now();
  const char* label = "system_clock is not read here";
  (void)label;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace fixture
