// The assembled ATLANTIS machine: host CPU module, backplane, and a mix
// of computing and I/O boards in the CompactPCI crate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/aab.hpp"
#include "core/acb.hpp"
#include "core/aib.hpp"
#include "hw/clock.hpp"
#include "hw/hostcpu.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"

namespace atlantis::core {

class AtlantisSystem : public sim::Snapshottable {
 public:
  /// Creates a crate with the host CPU in slot 0 and an empty backplane.
  explicit AtlantisSystem(std::string name,
                          hw::HostCpuModel host = hw::pentium200_mmx(),
                          int slots = AabSpec::kDefaultSlots,
                          bool passive_backplane = false);

  const std::string& name() const { return name_; }

  /// Adds a board to the next free slot; returns its board index.
  int add_acb(const std::string& name);
  int add_aib(const std::string& name);

  AcbBoard& acb(int index);
  AibBoard& aib(int index);
  int acb_count() const { return static_cast<int>(acbs_.size()); }
  int aib_count() const { return static_cast<int>(aibs_.size()); }
  /// Crate slot occupied by a board.
  int acb_slot(int index) const;
  int aib_slot(int index) const;

  Backplane& backplane() { return backplane_; }
  const hw::HostCpuModel& host() const { return host_; }

  /// The crate-wide discrete-event timeline every board's timing model
  /// posts onto. Heap-owned so bound component pointers survive moves of
  /// the system object.
  sim::Timeline& timeline() { return *timeline_; }
  const sim::Timeline& timeline() const { return *timeline_; }
  /// The one shared CompactPCI segment (the 125 MB/s bottleneck every
  /// board's PLX 9080 contends for).
  sim::ResourceId pci_segment() const { return pci_segment_; }

  /// The central clock distributed from the AAB; boards may fall back to
  /// their local generators when it is absent.
  hw::ClockGenerator& main_clock() { return main_clock_; }

  /// Total gate capacity across all boards (sales-brochure number, but
  /// also the budget configure() enforces per chip).
  std::int64_t total_gate_capacity() const;

  /// Steps every ACB's FPGA matrix `cycles` edges in lockstep (boards
  /// advance one edge at a time so multi-board designs stay cycle-
  /// synchronous). Returns the total number of simulator edges applied
  /// across the crate.
  std::uint64_t step_acbs(int cycles);

  // --- fault injection --------------------------------------------------
  /// Wires a fault injector through every board in the crate; boards
  /// added later are wired on add. The injector is not owned and must
  /// outlive the system (or be detached with nullptr).
  void set_fault_injector(sim::FaultInjector* injector);
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// Snapshottable composite: a "system" section (board census), the
  /// crate timeline ("sim/timeline"), the attached fault injector
  /// ("sim/fault", when one is attached) and one "board/<name>" section
  /// per ACB. load_state restores into an identically assembled crate
  /// (same boards in the same order, same designs configured, an
  /// injector attached iff one was attached at save) and throws
  /// util::StateError / util::Error otherwise. AIB boards carry no
  /// mutable state beyond their buffers' timing models and are not
  /// serialized; their count is verified.
  void save_state(sim::SnapshotWriter& w) const override;
  void load_state(sim::SnapshotReader& r) override;

 private:
  int take_slot(const std::string& what);
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s);

  std::string name_;
  hw::HostCpuModel host_;
  std::unique_ptr<sim::Timeline> timeline_;
  sim::ResourceId pci_segment_;
  Backplane backplane_;
  hw::ClockGenerator main_clock_;
  std::vector<std::unique_ptr<AcbBoard>> acbs_;
  std::vector<std::unique_ptr<AibBoard>> aibs_;
  std::vector<int> acb_slots_;
  std::vector<int> aib_slots_;
  int next_slot_ = 1;  // slot 0 is the CPU module
  sim::FaultInjector* injector_ = nullptr;
};

/// Assembles one crate with `acbs` computing boards (named
/// "<name>/acb<i>") and `aibs` I/O boards ("<name>/aib<i>") — the
/// per-shard construction path of the serving cluster, which needs N
/// identically laid-out crates whose board names (and therefore fault
/// sites and timeline tracks) are distinct per shard. The heap
/// allocation keeps references into the system (drivers, services)
/// valid wherever the owner moves.
std::unique_ptr<AtlantisSystem> assemble_crate(const std::string& name,
                                               int acbs, int aibs = 0);

}  // namespace atlantis::core
