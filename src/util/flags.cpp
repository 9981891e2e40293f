#include "util/flags.hpp"

#include <cstdio>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace tdt {
namespace {

constexpr std::size_t kMaxFlags = 64;

std::string_view kind_name(int kind) {
  switch (kind) {
    case 0: return "string";
    case 1: return "uint";
    case 2: return "int";
    case 3: return "bool";
  }
  return "?";
}

}  // namespace

FlagParser::FlagParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  flags_.reserve(kMaxFlags);  // pointer stability for handed-out values
}

const std::string* FlagParser::add_string(std::string name,
                                          std::string default_value,
                                          std::string help) {
  internal_check(flags_.size() < kMaxFlags, "too many flags");
  Flag f{std::move(name), Kind::String, std::move(help), default_value,
         std::move(default_value)};
  flags_.push_back(std::move(f));
  return &flags_.back().str_value;
}

const std::uint64_t* FlagParser::add_uint(std::string name,
                                          std::uint64_t default_value,
                                          std::string help) {
  internal_check(flags_.size() < kMaxFlags, "too many flags");
  Flag f{std::move(name), Kind::Uint, std::move(help),
         std::to_string(default_value), {}};
  f.uint_value = default_value;
  flags_.push_back(std::move(f));
  return &flags_.back().uint_value;
}

const std::int64_t* FlagParser::add_int(std::string name,
                                        std::int64_t default_value,
                                        std::string help) {
  internal_check(flags_.size() < kMaxFlags, "too many flags");
  Flag f{std::move(name), Kind::Int, std::move(help),
         std::to_string(default_value), {}};
  f.int_value = default_value;
  flags_.push_back(std::move(f));
  return &flags_.back().int_value;
}

const bool* FlagParser::add_bool(std::string name, bool default_value,
                                 std::string help) {
  internal_check(flags_.size() < kMaxFlags, "too many flags");
  Flag f{std::move(name), Kind::Bool, std::move(help),
         default_value ? "true" : "false", {}};
  f.bool_value = default_value;
  flags_.push_back(std::move(f));
  return &flags_.back().bool_value;
}

FlagParser::Flag* FlagParser::find(std::string_view name) {
  for (Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void FlagParser::assign(Flag& flag, std::string_view value) {
  switch (flag.kind) {
    case Kind::String:
      flag.str_value = std::string(value);
      return;
    case Kind::Uint:
      if (auto v = parse_uint(value)) {
        flag.uint_value = *v;
        return;
      }
      throw_config_error("flag --" + flag.name + " expects an unsigned value, got '" +
                         std::string(value) + "'");
    case Kind::Int:
      if (auto v = parse_int(value)) {
        flag.int_value = *v;
        return;
      }
      throw_config_error("flag --" + flag.name + " expects an integer, got '" +
                         std::string(value) + "'");
    case Kind::Bool:
      if (value == "true" || value == "1") {
        flag.bool_value = true;
      } else if (value == "false" || value == "0") {
        flag.bool_value = false;
      } else {
        throw_config_error("flag --" + flag.name + " expects true/false, got '" +
                           std::string(value) + "'");
      }
      return;
  }
}

bool FlagParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), out_);
      return false;
    }
    if (arg == "--") {  // end of flags: the rest is positional verbatim
      for (int j = i + 1; j < argc; ++j) positional_.emplace_back(argv[j]);
      break;
    }
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    std::string_view value;
    bool has_value = false;
    if (auto eq = body.find('='); eq != std::string_view::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    Flag* flag = find(body);
    if (flag == nullptr) {
      throw_config_error("unknown flag --" + std::string(body));
    }
    if (!has_value) {
      if (flag->kind == Kind::Bool) {
        flag->bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        throw_config_error("flag --" + flag->name + " needs a value");
      }
      value = argv[++i];
    }
    assign(*flag, value);
  }
  return true;
}

std::string FlagParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nFlags:\n";
  for (const Flag& f : flags_) {
    out += "  --" + f.name + " <" + std::string(kind_name(static_cast<int>(f.kind))) +
           ">  " + f.help + " (default: " + f.default_repr + ")\n";
  }
  return out;
}

}  // namespace tdt
