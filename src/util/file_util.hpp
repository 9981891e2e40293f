// Checked file output: the reports the tools write (metrics and span
// exports, affinity and tuning reports, rule files, gnuplot data) go
// through write_file, and every writer that fails cleans up through
// remove_partial_file.
#pragma once

#include <string>
#include <string_view>

namespace tdt {

/// Writes `bytes` as the whole content of `path`: opens it, writes
/// everything, closes it and checks the result. Throws Error{Io} naming
/// the path when any step fails (a full disk, /dev/full, a closed
/// pipe), after removing the partial file (remove_partial_file).
void write_file(const std::string& path, std::string_view bytes);

/// After a failed write: removes `path` when it is a regular file, so
/// output cut short never passes for a complete one. Devices, pipes and
/// missing paths are left alone.
void remove_partial_file(const std::string& path) noexcept;

}  // namespace tdt
