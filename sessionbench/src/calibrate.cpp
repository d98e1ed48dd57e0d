#include "calibrate.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <unordered_map>
#include <vector>

namespace sessionbench {

namespace {

constexpr int kEntries = 1 << 16;
/// Room for the map's nodes and buckets (about 2 MiB), touched once up
/// front so no run pays for first-touch page faults.
constexpr std::size_t kArenaBytes = std::size_t{4} << 20;

std::uint32_t lcg(std::uint32_t x) { return x * 1664525u + 1013904223u; }

volatile std::uint64_t sink = 0;

}  // namespace

double calibration_run() {
  static std::vector<std::byte> arena = [] {
    std::vector<std::byte> bytes(kArenaBytes);
    std::memset(bytes.data(), 1, bytes.size());
    return bytes;
  }();
  const auto start = std::chrono::steady_clock::now();
  // The map allocates from an arena of its own, not from the heap the
  // sessions share, so what a session leaves in the heap does not change
  // the kernel's cost.
  std::pmr::monotonic_buffer_resource resource(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint32_t, std::uint32_t> map(&resource);
  map.reserve(kEntries);
  std::uint32_t key = 1;
  for (int i = 0; i < kEntries; ++i) {
    key = lcg(key);
    map.emplace(key, i);
  }
  std::uint64_t acc = 0;
  key = 1;
  for (int i = 0; i < kEntries; ++i) {
    key = lcg(key ^ static_cast<std::uint32_t>(i & 1));
    if (const auto it = map.find(key); it != map.end()) acc += it->second;
  }
  sink = sink + acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace sessionbench
