#include "core/selftest.hpp"

#include <sstream>

#include "chdl/builder.hpp"
#include "hw/pci.hpp"

namespace atlantis::core {
namespace {

/// A small known-good design used for the configure/readback step.
chdl::Design make_test_design() {
  chdl::Design d("selftest_lfsr");
  // 16-bit Fibonacci LFSR (taps 16,15,13,4) — a classic test pattern
  // generator with a known period.
  chdl::RegOpts opts;
  opts.init = chdl::BitVec(16, 0xACE1);
  const chdl::Wire q = d.reg_forward("lfsr", 16, opts);
  const chdl::Wire fb = d.bxor(
      d.bxor(d.bit(q, 15), d.bit(q, 14)),
      d.bxor(d.bit(q, 12), d.bit(q, 3)));
  d.reg_connect(q, d.concat({d.slice(q, 0, 15), fb}));
  d.output("pattern", q);
  return d;
}

}  // namespace

bool march_test_sram(hw::SyncSram& sram, int bank,
                     std::int64_t words_to_test) {
  const int width = sram.config().width_bits;
  const std::int64_t n = std::min<std::int64_t>(words_to_test,
                                                sram.config().words);
  const chdl::BitVec zeros(width);
  const chdl::BitVec ones = chdl::BitVec::ones(width);
  // March element 1: ascending write 0, verify, write 1.
  for (std::int64_t a = 0; a < n; ++a) sram.write(bank, a, zeros);
  for (std::int64_t a = 0; a < n; ++a) {
    if (sram.read(bank, a) != zeros) return false;
    sram.write(bank, a, ones);
  }
  // March element 2: descending verify 1, write checkerboard, verify.
  chdl::BitVec checker(width);
  for (int b = 0; b < width; b += 2) checker.set_bit(b, true);
  for (std::int64_t a = n; a-- > 0;) {
    if (sram.read(bank, a) != ones) return false;
    sram.write(bank, a, checker);
    if (sram.read(bank, a) != checker) return false;
  }
  return true;
}

SelfTestStep slink_test(hw::SlinkChannel& link) {
  SelfTestStep step;
  step.name = "slink/" + link.name();
  step.passed = link.self_test();
  step.duration = link.transfer_time(2 * 256);  // out and back
  step.detail = step.passed ? "pattern loop ok" : "pattern corrupted";
  return step;
}

SelfTestReport self_test_acb(AcbBoard& board) {
  util::Result<SelfTestReport> r = try_self_test_acb(board);
  if (!r.ok()) throw util::Error(r.message());
  return r.value();
}

util::Result<SelfTestReport> try_self_test_acb(AcbBoard& board) {
  if (!board.alive()) {
    return util::Result<SelfTestReport>::failure(
        util::ErrorCode::kBoardDead,
        "self test of " + board.name() + ": board is not alive");
  }
  SelfTestReport report;
  const bool injected = board.fault_injector() != nullptr;

  // 1. Configure + readback every FPGA with the LFSR test design and
  //    run it a few cycles.
  const chdl::Design test_design = make_test_design();
  const hw::Bitstream bs = hw::Bitstream::from_design(test_design);
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    SelfTestStep step;
    step.name = "fpga" + std::to_string(i) + " configure/readback";
    hw::FpgaDevice& dev = board.fpga(i);
    step.duration += dev.configure(bs);
    chdl::Simulator* sim = dev.sim();
    bool pattern_ok = sim != nullptr;
    if (pattern_ok) {
      const std::uint64_t first = sim->peek_u64("pattern");
      sim->run(16);
      pattern_ok = sim->peek_u64("pattern") != first;  // LFSR must advance
    }
    // 1b. SEU scrub window while the device is configured: an upset in
    //     the configuration SRAM shows up in readback and is repaired by
    //     reloading. Only runs when an injector is wired, so fault-free
    //     reports are unchanged.
    if (injected && dev.configured()) {
      SelfTestStep scrub;
      scrub.name = "fpga" + std::to_string(i) + " seu scrub";
      const bool upset = dev.draw_config_upset();
      scrub.duration += dev.readback();
      if (dev.upset_pending()) scrub.duration += dev.configure(bs);
      scrub.passed = !dev.upset_pending();
      scrub.detail = upset ? (scrub.passed ? "upset found, repaired"
                                           : "upset persists")
                           : "configuration clean";
      report.steps.push_back(std::move(scrub));
    }
    if (dev.configured()) step.duration += dev.readback();
    dev.deconfigure();
    step.passed = pattern_ok;
    step.detail = pattern_ok ? "LFSR runs, readback clean" : "LFSR stuck";
    report.steps.push_back(std::move(step));
  }

  // 2. Memory module march tests.
  for (int i = 0; i < AcbBoard::kFpgaCount; ++i) {
    MemModule* module = board.memory_at(i);
    if (module == nullptr || module->sram() == nullptr) continue;
    hw::SyncSram& sram = *module->sram();
    for (int bank = 0; bank < sram.config().banks; ++bank) {
      SelfTestStep step;
      step.name = module->name() + " bank " + std::to_string(bank) +
                  " march test";
      constexpr std::int64_t kWords = 4096;
      step.passed = march_test_sram(sram, bank, kWords);
      // 6 passes over the words under test at the module clock.
      step.duration = sram.time_for(6 * kWords);
      step.detail = step.passed ? "0/1/checker patterns ok" : "miscompare";
      report.steps.push_back(std::move(step));
    }
    // 2b. Memory scrub window: one SEU opportunity per module; a hit is
    //     repaired by flipping the bit back (the ECC scrubber).
    if (injected) {
      SelfTestStep scrub;
      scrub.name = module->name() + " seu scrub";
      scrub.duration = sram.time_for(4096);  // one scrubber pass
      if (const auto upset = sram.draw_seu()) {
        sram.flip_bit(upset->bank, upset->addr, upset->bit);
        scrub.detail = "upset bank " + std::to_string(upset->bank) +
                       " addr " + std::to_string(upset->addr) + " bit " +
                       std::to_string(upset->bit) + ", repaired";
      } else {
        scrub.detail = "memory clean";
      }
      scrub.passed = true;
      report.steps.push_back(std::move(scrub));
    }
  }

  // 3. PCI DMA loopback: write a block down, read it back; the model
  //    checks timing plausibility (data integrity is the driver's CRC).
  {
    SelfTestStep step;
    step.name = "pci dma loopback";
    const auto down = board.pci().transfer(hw::DmaDirection::kWrite,
                                           256 * util::kKiB);
    const auto up = board.pci().transfer(hw::DmaDirection::kRead,
                                         256 * util::kKiB);
    step.duration = down.duration + up.duration;
    step.passed = down.mbps() > 50.0 && up.mbps() > 50.0;
    std::ostringstream os;
    os << "write " << static_cast<int>(down.mbps()) << " MB/s, read "
       << static_cast<int>(up.mbps()) << " MB/s";
    step.detail = os.str();
    report.steps.push_back(std::move(step));
  }

  report.health = board.probe_health();
  return report;
}

std::string SelfTestReport::to_string() const {
  std::ostringstream os;
  for (const auto& s : steps) {
    os << (s.passed ? "[ ok ] " : "[FAIL] ") << s.name << " ("
       << util::ps_to_ms(s.duration) << " ms): " << s.detail << "\n";
  }
  os << (all_passed() ? "board self-test PASSED" : "board self-test FAILED")
     << ", total " << util::ps_to_ms(total_time()) << " ms\n";
  if (health.total() > 0) {
    os << "health: " << health.dma_stalls << " dma stalls, "
       << health.dma_aborts << " dma aborts, " << health.slink_errors
       << " link errors, " << health.truncated_frames
       << " truncated frames, " << health.retransmissions
       << " retransmissions, " << health.seu_flips << " memory upsets, "
       << health.config_upsets << " config upsets, " << health.crc_failures
       << " crc failures, " << health.ecc_corrections
       << " ecc corrections\n";
  }
  return os.str();
}

}  // namespace atlantis::core
