// Thread counting for tests that check no worker or writer thread
// outlives the object that started it.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <system_error>
#include <thread>

namespace tdt::trace {

/// Threads of this process (Linux /proc/self/task; 0 where unavailable).
inline std::size_t live_threads() {
  std::error_code ec;
  std::size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

/// Waits for the process to get back to `baseline` threads. A joined
/// thread can linger in /proc for a moment after join() returns; a
/// thread still blocked on its condition variable never leaves.
inline bool threads_settle(std::size_t baseline) {
  for (int i = 0; i < 200; ++i) {
    if (live_threads() <= baseline) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

}  // namespace tdt::trace
