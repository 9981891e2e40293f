#include "tools/cli_common.hpp"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include <sys/resource.h>

#include "service/client.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace tdt::tools {

CommonFlags CommonFlags::add(FlagParser& flags, CommonFlagChoices choices) {
  CommonFlags f;
  if (choices.error_policy) {
    f.on_error = flags.add_string(
        "on-error", "strict", "malformed-input policy: strict|skip|repair");
    f.max_errors = flags.add_uint(
        "max-errors", DiagEngine::kDefaultMaxErrors,
        "give up after this many recovered errors (0 = unlimited)");
  }
  if (choices.jobs) {
    f.jobs = flags.add_uint(
        "jobs", 1, "worker threads for the one-pass pipeline (1 = inline; "
                   "results are identical at any job count)");
  }
  if (choices.governor) {
    f.max_memory = flags.add_string(
        "max-memory", "0",
        "budget for accounted in-memory state, bytes with optional k/m/g "
        "suffix (0 = unlimited; exhaustion of a hard requirement exits 2)");
    f.deadline = flags.add_string(
        "deadline", "0",
        "wall-clock seconds before the run stops reading and reports "
        "partial results with exit code 1 (0 = none)");
  }
  if (choices.compress) {
    f.compress = flags.add_string(
        "compress", "",
        "write TDTB output as the v3 framed container with this frame "
        "codec: zstd|lz4|none[:level] (empty = plain v2; none stores "
        "frames verbatim but keeps the seekable index for --jobs decode)");
  }
  f.fault_spec = flags.add_string(
      "fault-spec", "",
      "deterministic fault injection spec, e.g. \"seed=7;worker.stall:1:2\" "
      "(see docs/robustness.md; overrides TDT_FAULT_SPEC)");
  f.metrics_json = flags.add_string(
      "metrics-json", "",
      "write a tdt-metrics/1 JSON metrics snapshot to this file");
  f.trace_spans = flags.add_string(
      "trace-spans", "",
      "write a Chrome trace_event span file (Perfetto-loadable) here");
  f.progress = flags.add_bool(
      "progress", false, "periodic one-line records/s heartbeat on stderr");
  if (choices.connect) {
    // Registered for --help only: run_tool strips --connect from argv
    // before the body's parser ever sees it (the value below is never
    // read).
    flags.add_string(
        "connect", "",
        "route this run through the tdtd daemon at this unix socket "
        "(tdt-rpc/1); output and exit code match a local run");
  }
  return f;
}

DiagEngine CommonFlags::make_diags(std::ostream* echo) const {
  internal_check(on_error != nullptr, "tool did not register --on-error");
  DiagEngine diags(parse_error_policy(*on_error), *max_errors);
  diags.set_echo(echo);
  return diags;
}

void CommonFlags::arm_faults() const {
  fault::FaultInjector::install_from_env();
  if (fault_spec != nullptr && !fault_spec->empty()) {
    fault::FaultInjector::install(*fault_spec);
  }
}

trace::BinaryWriterOptions CommonFlags::writer_options() const {
  trace::BinaryWriterOptions options;
  if (jobs != nullptr) options.jobs = *jobs;
  if (!wants_compress()) return options;
  const trace::CompressSpec spec = trace::parse_compress_spec(*compress);
  options.version = trace::kTdtbVersionFramed;
  options.codec = spec.codec;
  options.level = spec.level;
  return options;
}

void CommonFlags::configure(Governor& governor) const {
  internal_check(max_memory != nullptr,
                 "tool did not register the governor flags");
  governor.memory.set_limit(parse_byte_size(*max_memory, "--max-memory"));
  governor.set_deadline(parse_seconds(*deadline, "--deadline"));
}

void CommonFlags::write(obs::Registry& registry) const {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    const auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
#if defined(__APPLE__)
    constexpr double kMaxrssBytes = 1;  // ru_maxrss counts bytes here
#else
    constexpr double kMaxrssBytes = 1024;  // and KiB on Linux
#endif
    registry.gauge("process.peak_rss_bytes")
        .set(static_cast<double>(usage.ru_maxrss) * kMaxrssBytes);
    registry.gauge("process.cpu_seconds")
        .set(seconds(usage.ru_utime) + seconds(usage.ru_stime));
  }
  if (!metrics_json->empty()) registry.write_metrics_file(*metrics_json);
  if (!trace_spans->empty()) registry.write_spans_file(*trace_spans);
}

CacheFlags CacheFlags::add(FlagParser& flags) {
  CacheFlags f;
  f.size = flags.add_uint("size", 32768, "cache bytes");
  f.block = flags.add_uint("block", 32, "block bytes");
  f.assoc =
      flags.add_uint("assoc", 1, "ways per set (0 = fully associative)");
  f.repl = flags.add_string("repl", "lru", "lru|fifo|random|rr");
  f.prefetch = flags.add_string(
      "prefetch", "none", "L1 prefetch: none|always|miss|tagged");
  f.l2_size = flags.add_uint(
      "l2-size", 0, "add an L2 level of this many bytes (0 = none)");
  f.l2_assoc = flags.add_uint("l2-assoc", 8, "L2 ways per set");
  f.l2_block = flags.add_uint("l2-block", 64, "L2 block bytes");
  f.page_policy = flags.add_string(
      "page-policy", "identity",
      "virtual->physical mapping: identity|first-touch|random");
  f.page_size = flags.add_uint("page-size", 4096, "page bytes");
  f.page_frames = flags.add_uint(
      "page-frames", 0, "physical frame count (0 = unbounded)");
  f.page_seed = flags.add_uint("page-seed", 1, "random page policy seed");
  f.modify_rw = flags.add_bool(
      "modify-read-write", false,
      "count Modify as a read followed by a write (DineroIV style)");
  return f;
}

namespace {

/// A way count from a 64-bit flag value; above 32 bits it names the flag.
std::uint32_t ways_flag(std::uint64_t value, std::string_view flag) {
  if (value > UINT32_MAX) {
    throw_config_error("--" + std::string(flag) + " must be at most " +
                       std::to_string(UINT32_MAX) + " (got " +
                       std::to_string(value) + ")");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

cache::CacheConfig CacheFlags::l1_geometry() const {
  cache::CacheConfig config;
  config.size = *size;
  config.block_size = *block;
  config.assoc = ways_flag(*assoc, "assoc");
  return config;
}

cache::CacheConfig CacheFlags::l1() const {
  cache::CacheConfig config = l1_geometry();
  config.replacement = parse_replacement(*repl);
  config.prefetch = cache::parse_prefetch_policy(*prefetch);
  return config;
}

std::vector<cache::CacheConfig> CacheFlags::extra_levels() const {
  std::vector<cache::CacheConfig> levels;
  if (*l2_size != 0) {
    cache::CacheConfig l2;
    l2.name = "L2";
    l2.size = *l2_size;
    l2.assoc = ways_flag(*l2_assoc, "l2-assoc");
    l2.block_size = *l2_block;
    levels.push_back(l2);
  }
  return levels;
}

cache::PagePolicy CacheFlags::parsed_page_policy() const {
  return parse_page_policy(*page_policy);
}

cache::PageMapSpec CacheFlags::page_spec() const {
  cache::PageMapSpec spec;
  spec.policy = parsed_page_policy();
  spec.page_size = *page_size;
  spec.frames = *page_frames;
  spec.seed = *page_seed;
  return spec;
}

cache::SimOptions CacheFlags::sim_options() const {
  cache::SimOptions options;
  options.modify_is_read_write = *modify_rw;
  return options;
}

cache::ReplacementPolicy parse_replacement(const std::string& text) {
  if (text == "round-robin") return cache::ReplacementPolicy::RoundRobin;
  return cache::parse_replacement_policy(text);
}

cache::PagePolicy parse_page_policy(const std::string& text) {
  if (text == "identity") return cache::PagePolicy::Identity;
  if (text == "first-touch") return cache::PagePolicy::FirstTouch;
  if (text == "random") return cache::PagePolicy::Random;
  throw_config_error("unknown page policy '" + text +
                     "' (identity|first-touch|random)");
}

std::uint64_t parse_byte_size(const std::string& text, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || errno == ERANGE) {
    throw_config_error(std::string(flag) + ": bad byte count '" + text + "'");
  }
  std::uint64_t scale = 1;
  if (*end != '\0') {
    switch (std::tolower(static_cast<unsigned char>(*end))) {
      case 'k': scale = 1ull << 10; break;
      case 'm': scale = 1ull << 20; break;
      case 'g': scale = 1ull << 30; break;
      default:
        throw_config_error(std::string(flag) + ": bad size suffix in '" +
                           text + "' (use k, m, or g)");
    }
    if (end[1] != '\0') {
      throw_config_error(std::string(flag) + ": trailing junk in '" + text +
                         "'");
    }
  }
  if (value > UINT64_MAX / scale) {
    throw_config_error(std::string(flag) + ": '" + text + "' overflows");
  }
  return value * scale;
}

double parse_seconds(const std::string& text, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !(value >= 0)) {
    throw_config_error(std::string(flag) + ": bad duration '" + text +
                       "' (non-negative seconds)");
  }
  return value;
}

int run_tool_body(const char* tool, const service::ToolIO& io,
                  const std::function<int()>& body) {
  int code;
  try {
    code = body();
  } catch (const Error& e) {
    std::fprintf(io.err, "%s: %s\n", tool, e.what());
    return 2;
  }
  // The report goes to io.out through buffered stdio; an EPIPE/ENOSPC on
  // the final flush is the last chance to notice the output never
  // arrived (docs/robustness.md: exit 2, diagnostic on the error
  // stream).
  if (std::fflush(io.out) != 0 || std::ferror(io.out) != 0) {
    std::fprintf(io.err, "%s: error: writing to stdout failed (broken pipe "
                         "or disk full?); output is incomplete\n", tool);
    return 2;
  }
  return code;
}

int run_tool(const ToolSpec& spec, int argc, char** argv) {
  // A downstream reader that goes away (dinerosim | head) must surface
  // as a write error we can report, not a silent SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);
  const service::ToolIO io = service::standard_io();

  // Backend selection happens before the body's own parser runs: strip
  // --connect out of argv and keep everything else, in order, both as a
  // local argv and as the argument vector a daemon request would carry.
  std::string socket;
  std::vector<char*> local_argv{argv[0]};
  std::vector<std::string> forward;
  bool verbatim = false;  // a bare "--" ends flag interpretation
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--") verbatim = true;
    if (!verbatim && arg == "--connect") {
      if (i + 1 >= argc) {
        std::fprintf(io.err, "%s: --connect needs a socket path\n", spec.name);
        return 2;
      }
      socket = argv[++i];
      continue;
    }
    if (!verbatim && arg.rfind("--connect=", 0) == 0) {
      socket = std::string(arg.substr(10));
      continue;
    }
    local_argv.push_back(argv[i]);
    forward.emplace_back(arg);
  }

  if (socket.empty()) {
    const int local_argc = static_cast<int>(local_argv.size());
    return run_tool_body(spec.name, io, [&] {
      return spec.run(io, local_argc, local_argv.data());
    });
  }
  if (spec.rpc_op == nullptr) {
    std::fprintf(io.err, "%s: this tool runs locally; --connect is not "
                         "supported\n", spec.name);
    return 2;
  }
  return run_tool_body(spec.name, io, [&] {
    service::Session session(socket);
    return session.run_tool(spec.rpc_op, std::move(forward), io.out, io.err);
  });
}

void print_warnings(std::FILE* err, const char* tool,
                    const std::vector<std::string>& warnings) {
  for (const std::string& w : warnings) {
    std::fprintf(err, "%s: warning: %s\n", tool, w.c_str());
  }
}

}  // namespace tdt::tools
