// Board self-test routines.
//
// §2 stresses that the microEnable-compatible support logic makes the
// "test tools" immediately available on ATLANTIS, and that the ORCA
// parts were chosen partly for read-back/test support. This module is
// that tool: a configuration/readback check per FPGA, a memory-module
// march test, a PCI DMA loopback and an S-Link pattern test, producing a
// pass/fail report with the time each step took.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/acb.hpp"
#include "hw/slink.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::core {

struct SelfTestStep {
  std::string name;
  bool passed = false;
  util::Picoseconds duration = 0;
  std::string detail;
};

struct SelfTestReport {
  std::vector<SelfTestStep> steps;
  SelfTestHealth health;
  bool all_passed() const {
    for (const auto& s : steps) {
      if (!s.passed) return false;
    }
    return !steps.empty();
  }
  util::Picoseconds total_time() const {
    util::Picoseconds t = 0;
    for (const auto& s : steps) t += s.duration;
    return t;
  }
  std::string to_string() const;
};

/// Recoverable form of the full board check (the try_dma_* convention):
/// a dead board — drop-out, power/clock loss — comes back as
/// ErrorCode::kBoardDead instead of a meaningless report. A live board
/// always yields a report; individual step failures are data inside it,
/// not errors. Runs per-FPGA configure+readback, a march-C-style test
/// over every attached memory module, and a DMA loopback through the
/// PLX bridge; leaves the FPGAs deconfigured. When a fault injector is
/// wired to the board the run additionally performs SEU scrub steps
/// (configuration and memory) and the report's health page carries the
/// fault counters.
util::Result<SelfTestReport> try_self_test_acb(AcbBoard& board);

/// Throwing dual of try_self_test_acb (thin wrapper; throws util::Error
/// on a dead board).
SelfTestReport self_test_acb(AcbBoard& board);

/// March test over one SRAM module bank (write/verify two complementary
/// patterns at every word). Returns false on the first miscompare.
bool march_test_sram(hw::SyncSram& sram, int bank,
                     std::int64_t words_to_test = 4096);

/// S-Link loopback check for an external I/O channel.
SelfTestStep slink_test(hw::SlinkChannel& link);

}  // namespace atlantis::core
