// Deterministic fault injection for the trace pipeline. Production-scale
// runs fail in ways unit inputs never exercise — a read() that dies
// mid-trace, a disk that fills under the transformed-trace writer, a
// worker thread that stalls or exits — and the only way to keep those
// paths honest is to make failure an *input*: named injection sites
// threaded through the readers, writers, queues, and workers, armed from
// one seeded, process-global spec.
//
//   TDT_FAULT_SPEC="worker.stall:1:2"   dinerosim --jobs 4 ...
//   dinerosim --fault-spec "binary.crc-flip:1" --trace big.tdtb ...
//
// Spec grammar (docs/robustness.md):
//
//   spec     := element (';' element)*
//   element  := 'seed=' N | site ':' probability [':' after_n]
//   site     := reader.read | binary.short-read | binary.crc-flip
//             | binary.bad-footer | binary.frame-decode | writer.flush
//             | queue.push-delay | queue.pop-delay | worker.throw
//             | worker.stall | worker.exit | sink.push-batch
//
// Each *opportunity* (a pass over an armed site) is numbered; the first
// `after_n` opportunities never fire, later ones fire with `probability`
// decided by a pure hash of (seed, site, opportunity index) — so a fixed
// seed reproduces the exact same fault schedule run after run, even with
// worker threads racing on the opportunity counter only within one site.
//
// Disarmed cost: one relaxed atomic load and a predicted-not-taken
// branch per site pass (`enabled()`), nothing else — output stays
// byte-identical to a build without the hooks.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tdt::fault {

/// Named injection sites. Keep site_name()/parse_site() and the table in
/// docs/robustness.md in sync when extending.
enum class Site : std::uint8_t {
  ReaderRead,       ///< Gleipnir istream refill fails mid-trace (I/O error)
  BinaryShortRead,  ///< TDTB stream ends at a record boundary (short read)
  BinaryCrcFlip,    ///< TDTB running CRC corrupted (bit-flip simulation)
  BinaryBadFooter,  ///< TDTB v2 footer read comes back short
  WriterFlush,      ///< trace writer flush fails (ENOSPC simulation)
  QueuePushDelay,   ///< fan-out publish delayed (backpressure jitter)
  QueuePopDelay,    ///< fan-out worker take delayed (consumer jitter)
  WorkerThrow,      ///< pipeline worker throws before a batch
  WorkerStall,      ///< pipeline worker stalls (supervision fodder)
  WorkerExit,       ///< pipeline worker exits without draining its queue
  SinkPushBatch,    ///< sink push_batch throws
  FrameDecode,      ///< TDTB v3 frame fails to decode (corrupt shard)
};

inline constexpr std::size_t kSiteCount = 12;

/// Canonical spelling used in specs ("worker.stall", ...).
[[nodiscard]] std::string_view site_name(Site site) noexcept;

/// Inverse of site_name(); nullopt for unknown spellings.
[[nodiscard]] std::optional<Site> parse_site(std::string_view text) noexcept;

/// The process-global injection registry. At most one spec is armed at a
/// time; install() replaces it. Arm before spawning pipeline threads.
class FaultInjector {
 public:
  /// One armed site's schedule.
  struct Rule {
    bool armed = false;
    double probability = 1.0;    ///< chance per opportunity once past after_n
    std::uint64_t after_n = 0;   ///< opportunities skipped before arming
  };

  /// Parses `spec` and arms it process-wide; an empty spec disarms.
  /// Throws Error{Config} on bad grammar, unknown sites, or probability
  /// outside [0, 1].
  static void install(std::string_view spec);

  /// Arms from the TDT_FAULT_SPEC environment variable when set and
  /// non-empty; otherwise leaves the current state alone.
  static void install_from_env();

  /// Disarms everything (tests).
  static void reset() noexcept;

  /// The armed registry, or nullptr when injection is off.
  [[nodiscard]] static FaultInjector* active() noexcept {
    return active_.load(std::memory_order_acquire);
  }

  /// Hot-path guard: one relaxed load.
  [[nodiscard]] static bool enabled() noexcept {
    return active_.load(std::memory_order_relaxed) != nullptr;
  }

  /// Counts one opportunity at `site` and decides whether the fault
  /// fires there. Deterministic for a fixed (seed, site, opportunity).
  [[nodiscard]] bool fire(Site site) noexcept;

  /// Observability for tests and the end-of-run fault report.
  [[nodiscard]] std::uint64_t opportunities(Site site) const noexcept;
  [[nodiscard]] std::uint64_t fired(Site site) const noexcept;
  [[nodiscard]] const Rule& rule(Site site) const noexcept;
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Injected worker stalls park in maybe_stall() until the supervisor
  /// gives up on the worker and releases them (so the stalled thread can
  /// exit and be joined). Real stalls have no such courtesy; the
  /// supervisor abandons threads that ignore the release.
  static void release_stalls() noexcept;
  [[nodiscard]] static bool stalls_released() noexcept;

 private:
  struct SiteState {
    Rule rule;
    std::atomic<std::uint64_t> opportunities{0};
    std::atomic<std::uint64_t> fired{0};
  };

  static std::atomic<FaultInjector*> active_;
  static std::atomic<bool> stall_release_;

  std::uint64_t seed_ = 1;
  SiteState sites_[kSiteCount];
};

/// Counts an opportunity and reports whether the fault fires; false in
/// one relaxed load when injection is disarmed.
[[nodiscard]] inline bool should_fire(Site site) noexcept {
  if (!FaultInjector::enabled()) [[likely]] return false;
  FaultInjector* f = FaultInjector::active();
  return f != nullptr && f->fire(site);
}

/// Delay site helper: sleeps a couple of milliseconds when the site
/// fires (queue push/pop jitter). No-op when disarmed.
void maybe_delay(Site site) noexcept;

/// Stall site helper: when Site::WorkerStall fires, parks the calling
/// thread until release_stalls() (or a 60 s safety cap). Returns true
/// when a stall happened — the caller must then re-check whether its
/// supervisor gave up on it before touching shared state.
[[nodiscard]] bool maybe_stall() noexcept;

}  // namespace tdt::fault
