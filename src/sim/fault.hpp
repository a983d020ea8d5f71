// Deterministic fault injection for the ATLANTIS fabric.
//
// The machine the paper describes is a trigger/DAQ component: detector-fed
// S-Link streams, PCI DMA through a PLX 9080, and SRAM-configured ORCA
// parts — all of which fail in the field (link errors, DMA stalls,
// configuration upsets). A robustness model therefore needs faults that
// are *reproducible*: the same seed and the same FaultPlan must produce
// the same faults, the same retries and the same recovery time, run after
// run, regardless of how many worker threads the functional simulation
// uses.
//
// The mechanism: every injection point in hw/ and core/ names a *site*
// ("pci/acb0", "slink/acb0/lvds", "fpga/acb0/fpga0", "board/acb1") and
// asks the injector at each fault *opportunity* (one DMA transfer, one
// S-Link word, one reconfiguration, one scrub window). Each (kind, site)
// pair owns an independent RNG stream derived from the plan seed, so the
// draw sequence at one site does not depend on how opportunities at other
// sites interleave with it. Faults can also be *scheduled* outright: fire
// on exactly the nth opportunity at a site, which is how tests and the
// fault bench script exact failure scenarios.
//
// Recovery policy lives here too: RetryPolicy is the capped exponential
// backoff the driver and the task switcher share. Components bound to an
// injector stay bit-identical to the fault-free build when the plan is
// empty or the injector is absent — the hooks cost one null check.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace atlantis::sim {

/// The fault taxonomy: everything the paper's hardware can plausibly
/// suffer, at the granularity the timing model works in.
enum class FaultKind {
  kDmaStall,        // PCI DMA hangs; detected by the driver watchdog
  kDmaAbort,        // PCI master/target abort during DMA programming
  kSlinkError,      // S-Link transmission error (LDERR): corrupted word
  kSlinkTruncation, // event fragment cut short, end marker lost
  kSlinkXoff,       // persistent XOFF: link refuses words for a while
  kSeuConfig,       // SEU in FPGA configuration SRAM
  kSeuMemory,       // SEU in mezzanine SSRAM/SDRAM data
  kConfigCrc,       // configuration CRC check fails after (re)config
  kBoardDropout,    // whole-board drop-out (power/clock/config loss)
  kServiceCrash,    // the serving process itself dies (host crash)
};
inline constexpr int kFaultKindCount = 10;

/// Stable lowercase name used in logs, tables and BENCH_fault.json.
const char* fault_kind_name(FaultKind kind);

/// A fault pinned to an exact opportunity: fires on the `nth` (1-based)
/// opportunity of `kind` at `site`. `param` is the kind-specific payload
/// (bit index for SEUs, corruption mask for link errors, refusal count
/// for XOFF); 0 lets the injector draw one from the site stream.
struct ScheduledFault {
  FaultKind kind = FaultKind::kDmaStall;
  std::string site;
  std::uint64_t nth = 1;
  std::uint64_t param = 0;
};

/// The deterministic fault specification: a seed, a per-kind fault
/// probability per opportunity, and a list of scheduled faults.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::array<double, kFaultKindCount> rates{};
  std::vector<ScheduledFault> scheduled;

  FaultPlan& with_rate(FaultKind kind, double probability);
  double rate(FaultKind kind) const {
    return rates[static_cast<std::size_t>(kind)];
  }
  FaultPlan& inject(FaultKind kind, std::string site, std::uint64_t nth = 1,
                    std::uint64_t param = 0);
  /// True when the plan can never fire (all rates zero, nothing
  /// scheduled) — bound components then behave exactly as if unbound.
  bool empty() const;
};

/// One fault that actually fired.
struct FaultRecord {
  FaultKind kind = FaultKind::kDmaStall;
  std::string site;
  std::uint64_t opportunity = 0;  // 1-based ordinal at the site
  std::uint64_t param = 0;
  bool operator==(const FaultRecord&) const = default;
};

/// What a successful draw hands back to the injection hook.
struct FaultHit {
  std::uint64_t param = 0;
};

/// Capped exponential backoff shared by the driver's DMA retry and the
/// task switcher's reconfiguration retry. Attempt 1 is the original try;
/// backoff(n) is the wait before attempt n+1.
struct RetryPolicy {
  int max_attempts = 4;
  util::Picoseconds initial_backoff = 10 * util::kMicrosecond;
  double multiplier = 2.0;
  util::Picoseconds max_backoff = 1 * util::kMillisecond;
  /// Total recovery time (faulted attempts + backoff) a single operation
  /// may consume before giving up with kTimeout.
  util::Picoseconds timeout_budget = 50 * util::kMillisecond;
  /// How long a stalled DMA holds the bus before the watchdog aborts it.
  util::Picoseconds stall_watchdog = 500 * util::kMicrosecond;
  /// Multiplicative backoff jitter in [0, 1): each jittered wait is drawn
  /// uniformly from [(1 - jitter) * backoff(n), backoff(n)] so concurrent
  /// retries at different sites desynchronize. 0 (the default) disables
  /// jitter entirely — backoff(retry, stream) == backoff(retry) and the
  /// fault-free/jitter-free timing stays bit-identical.
  double jitter = 0.0;

  /// Backoff before retry `retry` (1-based): initial * multiplier^(retry-1),
  /// capped at max_backoff.
  util::Picoseconds backoff(int retry) const;

  /// Jittered variant. `stream` is a deterministic per-draw word (see
  /// jitter_stream below); the same (policy, retry, stream) always yields
  /// the same wait, so replay stays bit-identical and nothing about the
  /// draw needs to live in a snapshot.
  util::Picoseconds backoff(int retry, std::uint64_t stream) const;
};

/// Derives the deterministic jitter word for one backoff draw from the
/// fault-plan seed, the retry site name and the site-local draw ordinal
/// (e.g. the driver's lifetime retry counter). Same inputs, same word —
/// across runs, across snapshot restore, across worker-pool sizes.
std::uint64_t jitter_stream(std::uint64_t seed, const std::string& site,
                            std::uint64_t ordinal);

/// Draws faults against a FaultPlan. Not thread-safe by design: all
/// injection hooks run on the (single) scheduling thread; the functional
/// worker pool never draws.
class FaultInjector : public Snapshottable {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// One fault opportunity of `kind` at `site`. Returns the hit (with
  /// its kind-specific parameter) when the plan fires, nullopt otherwise.
  /// Every call advances the (kind, site) opportunity counter; rate draws
  /// consume that stream's RNG exactly once per opportunity.
  std::optional<FaultHit> draw(FaultKind kind, const std::string& site);

  /// Counters and the replay log.
  std::uint64_t opportunities(FaultKind kind, const std::string& site) const;
  std::uint64_t injected(FaultKind kind) const;
  std::uint64_t injected_total() const;
  const std::vector<FaultRecord>& log() const { return log_; }

  /// Snapshottable: the complete injector — plan (seed, rates, scheduled
  /// faults), per-(kind, site) opportunity counters and RNG stream
  /// positions, injected tallies and the replay log — under a
  /// "sim/fault" section. A restored injector continues the exact fault
  /// tail the saved one would have produced.
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  struct SiteState {
    std::uint64_t opportunities = 0;
    util::Rng rng{0};
  };
  using SiteKey = std::pair<int, std::string>;

  SiteState& site_state(FaultKind kind, const std::string& site);
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  FaultPlan plan_;
  std::map<SiteKey, SiteState> sites_;
  std::array<std::uint64_t, kFaultKindCount> injected_{};
  std::vector<FaultRecord> log_;
};

}  // namespace atlantis::sim
