// tdtd — the persistent sweep/autotune daemon (docs/SERVICE.md).
//
// Serves the tool bodies over a unix-domain socket speaking tdt-rpc/1:
//
//   tdtd --socket /tmp/tdt.sock --workers 4 --memo-bytes 128m
//   dinerosim --connect /tmp/tdt.sock --trace t.out --sweep "assoc=1;assoc=4"
//   tdtd --socket /tmp/tdt.sock --rpc shutdown
//
// The daemon registers one OpHandler per tool op, closing over exactly
// the entry points the standalone binaries run (tools/entries.hpp), so a
// daemon-served request and a local run execute the same code and differ
// only in where the bytes land. Repeated identical requests on unchanged
// inputs are answered from the result memo, byte-identical to the cold
// run.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tdt/service.hpp"
#include "tdt/tdt.hpp"
#include "tools/cli_common.hpp"
#include "tools/entries.hpp"

namespace {

using namespace tdt;

/// Terminal sink that folds the canonical text rendering of every
/// transformed record into a CRC32, one encoder block at a time, so two
/// runs agree iff the transformed traces are byte-identical — the
/// paper's step-5 comparison as one number.
class DigestSink final : public trace::TraceSink {
 public:
  explicit DigestSink(const trace::TraceContext& ctx) : encoder_(ctx) {}

  void on_record(const trace::TraceRecord& rec) override {
    encoder_.record(rec);
    ++records_;
    if (encoder_.full()) fold();
  }
  void on_end() override { fold(); }

  [[nodiscard]] std::uint32_t value() const noexcept { return crc_.value(); }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  void fold() {
    const std::string_view block = encoder_.bytes();
    crc_.update(block.data(), block.size());
    encoder_.clear();
  }

  trace::TextEncoder encoder_;
  Crc32 crc_;
  std::uint64_t records_ = 0;
};

/// The `transform-digest` op: stream a trace through the transformer
/// under a rule file and report the digest of the transformed trace
/// without materializing it. Exists only behind the daemon (and shares
/// its error contract with the standalone tools via run_tool_body).
int transform_digest_run(const service::ToolIO& io, int argc, char** argv) {
  FlagParser flags("transform-digest",
                   "digest of the transformed trace: streams the input "
                   "through the rule transformer and reports a CRC32 over "
                   "the canonical text rendering of the result");
  flags.set_output(io.out);
  const auto* trace_flag = flags.add_string(
      "trace", "", "input trace file (or pass it positionally)");
  const auto* rules_path =
      flags.add_string("rules", "", "transformation rule file (required)");
  const tools::CommonFlags common = tools::CommonFlags::add(
      flags, {.governor = true, .connect = false});
  if (!flags.parse(argc, argv)) return 0;

  std::string trace_path = *trace_flag;
  if (trace_path.empty() && !flags.positional().empty()) {
    trace_path = flags.positional().front();
  }
  if (flags.positional().size() > 1 ||
      (!trace_flag->empty() && !flags.positional().empty())) {
    throw_config_error("expected exactly one trace file");
  }
  if (trace_path.empty()) {
    throw_config_error("a trace file is required (positional or --trace)");
  }
  if (rules_path->empty()) throw_config_error("--rules is required");
  common.arm_faults();
  Governor governor;
  common.configure(governor);
  DiagEngine diags = common.make_diags(io.errs);

  const core::RuleSet rules = core::parse_rules_file(*rules_path);
  for (const core::RuleDiagnostic& d : rules.validate()) {
    std::fprintf(io.err, "transform-digest: rule %s: %s\n",
                 d.severity == core::RuleDiagnostic::Severity::Error
                     ? "error"
                     : "warning",
                 d.message.c_str());
  }

  trace::TraceContext ctx;
  DigestSink digest(ctx);
  core::TransformOptions xopt;
  xopt.diags = &diags;
  core::TransformStats stats;
  trace::ViewSourceOptions source_options;
  source_options.diags = &diags;
  const trace::GraphResult stream_result =
      trace::View::source(ctx, trace_path, source_options)
          .transform(rules, xopt, &stats)
          .drain(digest, {.governor = &governor});
  if (stream_result.deadline_hit) {
    std::fprintf(io.err,
                 "transform-digest: deadline expired after %llu records; "
                 "the digest covers that prefix only\n",
                 static_cast<unsigned long long>(stream_result.records));
  }

  std::fprintf(io.out,
               "transform-digest: crc32:%08x records_in=%llu "
               "records_out=%llu rewritten=%llu inserted=%llu\n",
               digest.value(),
               static_cast<unsigned long long>(stats.records_in),
               static_cast<unsigned long long>(stats.records_out),
               static_cast<unsigned long long>(stats.rewritten),
               static_cast<unsigned long long>(stats.inserted));

  const std::string summary = diags.summary();
  if (!summary.empty()) {
    std::fprintf(io.err, "transform-digest: %s", summary.c_str());
  }
  return tools::finalize_exit(diags.exit_code(), stream_result.deadline_hit);
}

/// Wraps a tool entry point as an OpHandler: the daemon hands over the
/// captured ToolIO and the request's argument vector; the body runs
/// under the same run_tool_body contract as a standalone invocation.
service::OpHandler tool_op(const char* name, std::string_view op,
                           int (*run)(const service::ToolIO&, int, char**),
                           std::vector<std::string> input_flags,
                           bool positional_inputs,
                           std::vector<std::string> bool_flags) {
  service::OpHandler handler;
  handler.op = std::string(op);
  handler.input_flags = std::move(input_flags);
  handler.positional_inputs = positional_inputs;
  handler.bool_flags = std::move(bool_flags);
  handler.run = [name, run](const service::ToolIO& io,
                            const std::vector<std::string>& args) {
    std::vector<std::string> storage;
    storage.reserve(args.size() + 1);
    storage.emplace_back(name);
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(storage.size());
    for (std::string& s : storage) argv.push_back(s.data());
    return tools::run_tool_body(name, io, [&] {
      return run(io, static_cast<int>(argv.size()), argv.data());
    });
  };
  return handler;
}

void register_ops(service::Daemon& daemon) {
  daemon.register_op(tool_op(
      "dinerosim", service::kOpSweep, tools::dinerosim_run, {"trace"},
      /*positional_inputs=*/false,
      {"per-set", "per-var", "conflicts", "advise", "modify-read-write",
       "progress"}));
  daemon.register_op(tool_op(
      "tdtune", service::kOpAutotune, tools::tdtune_run, {"trace"},
      /*positional_inputs=*/true,
      {"stride-injects", "report", "modify-read-write", "progress"}));
  daemon.register_op(tool_op("traceinfo", service::kOpTraceInfo,
                             tools::traceinfo_run, {},
                             /*positional_inputs=*/true, {"progress"}));
  daemon.register_op(tool_op("tracediff", service::kOpTraceDiff,
                             tools::tracediff_run, {},
                             /*positional_inputs=*/true,
                             {"summary", "progress"}));
  daemon.register_op(tool_op("transform-digest", service::kOpTransformDigest,
                             transform_digest_run, {"trace", "rules"},
                             /*positional_inputs=*/true, {"progress"}));
}

std::atomic<service::Daemon*> g_daemon{nullptr};

void handle_signal(int) {
  if (service::Daemon* daemon = g_daemon.load()) daemon->request_shutdown();
}

/// Client mode (`--rpc <op> [args...]`): one request against a running
/// daemon, captured output relayed verbatim, remote exit code returned.
int run_rpc(const service::ToolIO& io, const std::string& socket,
            const std::string& op, std::vector<std::string> args) {
  service::Session session(socket);
  return session.run_tool(op, std::move(args), io.out, io.err);
}

int tdtd_run(const service::ToolIO& io, int argc, char** argv) {
  FlagParser flags("tdtd", "the tdt sweep/autotune daemon (tdt-rpc/1 over a "
                           "unix-domain socket; see docs/SERVICE.md)");
  flags.set_output(io.out);
  const auto* socket = flags.add_string(
      "socket", "", "unix-domain socket path to listen on (required)");
  const auto* workers = flags.add_uint(
      "workers", 2, "tool-request executor threads");
  const auto* queue = flags.add_uint(
      "queue", 8, "pending tool requests before new ones are refused "
                  "with status \"busy\"");
  const auto* memo_bytes = flags.add_string(
      "memo-bytes", "64m", "result-memo budget, bytes with optional k/m/g "
                           "suffix (0 disables the memo)");
  const auto* request_max_memory = flags.add_string(
      "request-max-memory", "", "default --max-memory appended to every "
                                "tool request that does not set its own "
                                "(empty = none)");
  const auto* request_deadline = flags.add_string(
      "request-deadline", "", "default --deadline appended to every tool "
                              "request that does not set its own "
                              "(empty = none)");
  const auto* detach = flags.add_bool(
      "detach", false, "fork to the background; the parent prints the "
                       "socket and exits 0 once the daemon is accepting");
  const auto* pid_file = flags.add_string(
      "pid-file", "", "write the daemon's pid here after the socket is "
                      "bound");
  const auto* rpc = flags.add_string(
      "rpc", "", "client mode: send this op (status|metrics|shutdown|"
                 "register-trace|...) to the daemon at --socket, relay "
                 "its reply, and exit with the remote exit code; "
                 "positional arguments travel as the op's arguments "
                 "(put them after a bare -- so the op's own flags are "
                 "not parsed here)");
  if (!flags.parse(argc, argv)) return 0;
  if (socket->empty()) {
    throw_config_error("--socket is required");
  }

  if (!rpc->empty()) {
    return run_rpc(io, *socket, *rpc, flags.positional());
  }
  if (!flags.positional().empty()) {
    throw_config_error("positional arguments only make sense with --rpc");
  }

  service::DaemonConfig config;
  config.socket_path = *socket;
  config.workers = static_cast<unsigned>(*workers);
  config.queue_capacity = static_cast<std::size_t>(*queue);
  config.memo_bytes = tools::parse_byte_size(*memo_bytes, "--memo-bytes");
  config.request_max_memory = *request_max_memory;
  config.request_deadline = *request_deadline;
  if (config.workers == 0) throw_config_error("--workers must be at least 1");
  if (config.queue_capacity == 0) {
    throw_config_error("--queue must be at least 1");
  }
  if (!request_max_memory->empty()) {
    (void)tools::parse_byte_size(*request_max_memory, "--request-max-memory");
  }
  if (!request_deadline->empty()) {
    (void)tools::parse_seconds(*request_deadline, "--request-deadline");
  }

  int ready_fd = -1;
  if (*detach) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) throw_io_error("pipe failed for --detach");
    const pid_t pid = ::fork();
    if (pid < 0) throw_io_error("fork failed for --detach");
    if (pid > 0) {
      // Parent: wait for the child's readiness byte so a failed bind
      // surfaces here as exit 2, not as a silent orphan.
      ::close(pipe_fds[1]);
      char byte = 0;
      const ssize_t n = ::read(pipe_fds[0], &byte, 1);
      ::close(pipe_fds[0]);
      if (n == 1 && byte == 'r') {
        std::fprintf(io.out, "tdtd: listening on %s (pid %d)\n",
                     socket->c_str(), static_cast<int>(pid));
        return 0;
      }
      std::fprintf(io.err, "tdtd: daemon failed to start\n");
      return 2;
    }
    ::close(pipe_fds[0]);
    ::setsid();
    // Drop the inherited std fds: a caller capturing our output reads
    // until every copy of its pipe's write end closes, so a daemon that
    // kept them would hang that caller for its whole lifetime.
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      if (devnull > STDERR_FILENO) ::close(devnull);
    }
    ready_fd = pipe_fds[1];
  }

  service::Daemon daemon(config);
  register_ops(daemon);
  try {
    daemon.start();
  } catch (const Error&) {
    if (ready_fd >= 0) ::close(ready_fd);  // parent reads EOF -> exit 2
    throw;
  }

  if (!pid_file->empty()) {
    if (std::FILE* f = std::fopen(pid_file->c_str(), "w")) {
      std::fprintf(f, "%d\n", static_cast<int>(::getpid()));
      std::fclose(f);
    } else {
      std::fprintf(io.err, "tdtd: warning: cannot write pid file '%s'\n",
                   pid_file->c_str());
    }
  }

  g_daemon.store(&daemon);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (ready_fd >= 0) {
    (void)!::write(ready_fd, "r", 1);
    ::close(ready_fd);
  } else {
    std::fprintf(io.err, "tdtd: listening on %s (pid %d)\n", socket->c_str(),
                 static_cast<int>(::getpid()));
  }

  daemon.wait();
  g_daemon.store(nullptr);
  std::fprintf(io.err, "tdtd: shut down\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tdt::tools::run_tool({"tdtd", nullptr, tdtd_run}, argc, argv);
}
