// VIOLATING fixture (rule: wallclock): every wall-clock read lets the date
// into results — system_clock, time(), gettimeofday, localtime,
// CLOCK_REALTIME.
#include <sys/time.h>

#include <chrono>
#include <ctime>

namespace fixture {

long stamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t t = time(nullptr);
  timeval tv{};
  gettimeofday(&tv, nullptr);
  const std::tm* parts = localtime(&t);
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<long>(now.time_since_epoch().count()) + parts->tm_sec +
         tv.tv_sec + ts.tv_sec;
}

}  // namespace fixture
