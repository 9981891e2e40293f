#include "util/error.hpp"

#include <utility>

namespace tdt {
namespace {

std::string format_what(ErrorKind kind, const std::string& message,
                        SourceLoc loc) {
  std::string out;
  out += to_string(kind);
  out += " error";
  if (loc.known()) {
    out += " at ";
    out += std::to_string(loc.line);
    out += ':';
    out += std::to_string(loc.column);
  }
  out += ": ";
  out += message;
  return out;
}

}  // namespace

std::string_view to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::Parse: return "parse";
    case ErrorKind::Config: return "config";
    case ErrorKind::Semantic: return "semantic";
    case ErrorKind::Io: return "io";
    case ErrorKind::Resource: return "resource";
    case ErrorKind::Internal: return "internal";
  }
  return "unknown";
}

Error::Error(ErrorKind kind, std::string message, SourceLoc loc)
    : std::runtime_error(format_what(kind, message, loc)),
      kind_(kind),
      loc_(loc),
      message_(std::move(message)) {}

void throw_parse_error(std::string message, SourceLoc loc) {
  throw Error(ErrorKind::Parse, std::move(message), loc);
}

void throw_config_error(std::string message) {
  throw Error(ErrorKind::Config, std::move(message));
}

void throw_semantic_error(std::string message, SourceLoc loc) {
  throw Error(ErrorKind::Semantic, std::move(message), loc);
}

void throw_io_error(std::string message) {
  throw Error(ErrorKind::Io, std::move(message));
}

void internal_check(bool condition, std::string_view what) {
  if (!condition) {
    throw Error(ErrorKind::Internal, std::string(what));
  }
}

}  // namespace tdt
