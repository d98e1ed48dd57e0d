// Host-speed calibration. The benchmark's shared host slows its vCPUs by up
// to half for seconds to minutes at a time (other tenants contend for cores,
// caches and memory), and CPU time slows with wall time, so no statistic of
// raw times taken inside one run removes it. A fixed kernel that does not
// touch the library runs beside every timed session; a session's time over
// the kernel's time around it is the session's cost in units of host speed,
// which a change to the library moves and a change of host load barely does.
#pragma once

namespace sessionbench {

/// Host time of one run of the calibration kernel: 65536 inserts into a
/// fresh std::unordered_map (reserved, allocating from an arena of its own)
/// and as many lookups, half of them misses; about 4.5 ms on the reference
/// host. Of the kernels tried (dependent walks over 4 and 64 MiB, sort,
/// sequential scan, integer arithmetic, std::set, breadth-first search, hash
/// maps of 8k to 256k entries) a hash map of this size slowed most nearly
/// in proportion with the session mix as the host's load changed
/// (README.md).
double calibration_run();

/// The kernel's time on the reference host (README.md). Calibrated times
/// are session time / kernel time x this, so they read in seconds at the
/// reference host's uncontended speed.
inline constexpr double kReferenceCalibrationS = 0.0045;

}  // namespace sessionbench
