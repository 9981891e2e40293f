#include "util/file_util.hpp"

#include <filesystem>
#include <fstream>

#include "util/error.hpp"

namespace tdt {

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::out | std::ios::binary);
  if (!out) throw_io_error("cannot open '" + path + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    remove_partial_file(path);
    throw_io_error("writing '" + path + "' failed");
  }
}

void remove_partial_file(const std::string& path) noexcept {
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    std::filesystem::remove(path, ec);
  }
}

}  // namespace tdt
