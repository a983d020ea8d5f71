#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "chdl/builder.hpp"
#include "util/json.hpp"

namespace atlantis::core {
namespace {

// A host-accessible design: register 0 echoes, register 1 counts writes.
chdl::Design& echo_design() {
  static chdl::Design d = [] {
    chdl::Design dd("echo");
    chdl::HostRegFile hrf(dd);
    hrf.write_reg("r0", 0, 32);
    hrf.map_read(1, chdl::counter(dd, "writes", 16, hrf.we()));
    hrf.finish();
    return dd;
  }();
  return d;
}

TEST(Driver, TimeLedgerStartsAtZero) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  EXPECT_EQ(drv.now(), 0);
}

TEST(Driver, ConfigureAdvancesLedger) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.configure(0, hw::Bitstream::from_design(echo_design()));
  // An ORCA full configuration is ~18.75 ms at 8 bit / 10 MHz.
  EXPECT_NEAR(util::ps_to_ms(drv.now()), 18.75, 0.1);
  EXPECT_TRUE(drv.board().fpga(0).configured());
}

TEST(Driver, RegisterAccessReachesSimulatedDesign) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.configure(0, hw::Bitstream::from_design(echo_design()));
  const util::Picoseconds t0 = drv.now();
  drv.reg_write(0, 0, 0xBEEF);
  EXPECT_EQ(drv.reg_read(0, 0), 0xBEEFu);
  EXPECT_EQ(drv.reg_read(0, 1), 1u);  // one write seen by the fabric
  EXPECT_GT(drv.now() - t0, 0);       // target-mode accesses cost time
}

TEST(Driver, RegisterAccessWithoutSimStillCostsTime) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  EXPECT_EQ(drv.reg_read(0, 0), 0u);
  EXPECT_GT(drv.now(), 0);
  EXPECT_EQ(drv.host_if(0), nullptr);
}

TEST(Driver, DmaAdvancesLedgerAndPciCounters) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const hw::DmaTransfer w = drv.dma_write(64 * util::kKiB);
  const hw::DmaTransfer r = drv.dma_read(64 * util::kKiB);
  EXPECT_EQ(drv.now(), w.duration + r.duration);
  EXPECT_EQ(drv.board().pci().total_bytes(), 128 * util::kKiB);
  EXPECT_GT(w.mbps(), r.mbps());
}

TEST(Driver, DesignClockProgrammable) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.set_design_clock(40.0);
  EXPECT_DOUBLE_EQ(drv.design_clock_mhz(), 40.0);
  const util::Picoseconds t0 = drv.now();
  drv.advance_cycles(1'000'000);  // 1M cycles @ 40 MHz = 25 ms
  EXPECT_NEAR(util::ps_to_ms(drv.now() - t0), 25.0, 0.01);
}

TEST(Driver, DmaToSimDeliversPayload) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.configure(0, hw::Bitstream::from_design(echo_design()));
  const std::vector<std::uint64_t> words = {1, 2, 3, 4, 5, 6, 7};
  drv.dma_write_to_sim(0, 0, words);
  // Register 0 holds the last word; the write counter saw all of them.
  EXPECT_EQ(drv.reg_read(0, 0), 7u);
  EXPECT_EQ(drv.reg_read(0, 1), static_cast<std::uint64_t>(words.size()));
}

TEST(Driver, DmaToSimRequiresHostPort) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  const std::vector<std::uint64_t> words = {1};
  EXPECT_THROW(drv.dma_write_to_sim(0, 0, words), util::Error);
}

TEST(Driver, PartialReconfigureFasterThanFull) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  hw::Bitstream bs = hw::Bitstream::from_design(echo_design());
  drv.configure(0, bs);
  const util::Picoseconds after_full = drv.now();
  bs.fraction = 0.1;
  drv.partial_reconfigure(0, bs);
  EXPECT_LT(drv.now() - after_full, after_full / 2);
}

TEST(Driver, LedgerBitIdenticalToScalarSum) {
  // The compatibility contract of the timeline refactor: a single driver
  // with no contention produces exactly the pre-refactor ledger — the
  // picosecond-for-picosecond sum of the pure calculator durations.
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  hw::Plx9080 reference;  // pure calculator, identical default params
  util::Picoseconds expected = 0;
  for (const std::uint64_t kb : {1, 7, 64, 300}) {
    drv.dma_write(kb * util::kKiB);
    drv.dma_read(kb * util::kKiB);
    expected +=
        reference.transfer(hw::DmaDirection::kWrite, kb * util::kKiB).duration;
    expected +=
        reference.transfer(hw::DmaDirection::kRead, kb * util::kKiB).duration;
  }
  drv.reg_read(0, 0);
  expected += reference.target_access();
  drv.advance_cycles(12345);
  expected += drv.board().local_clock().cycles(12345);
  EXPECT_EQ(drv.now(), expected);
  // Nothing queued anywhere on the crate.
  EXPECT_EQ(sys.timeline().stats(sys.pci_segment()).queue_delay, 0);
}

TEST(Driver, TwoBoardsContendOnPciSegment) {
  AtlantisSystem sys("crate");
  AtlantisDriver d0(sys, sys.add_acb("acb0"));
  AtlantisDriver d1(sys, sys.add_acb("acb1"));
  // Alone, a transfer takes its service time (pure calculator, so the
  // baseline itself does not occupy the shared segment)...
  const util::Picoseconds solo =
      d0.board().pci().transfer(hw::DmaDirection::kWrite, util::kMiB).duration;
  // ...but when both boards post at the same instant, the segment
  // serializes them: one of the two waits a full transfer.
  d0.dma_write_async(util::kMiB);
  d1.dma_write_async(util::kMiB);
  const util::Picoseconds e0 = d0.wait();
  const util::Picoseconds e1 = d1.wait();
  EXPECT_EQ(std::min(e0, e1), solo);
  EXPECT_EQ(std::max(e0, e1), 2 * solo);
  EXPECT_EQ(sys.timeline().stats(sys.pci_segment()).queue_delay, solo);
}

TEST(Driver, AsyncDmaOverlapsCompute) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.set_design_clock(40.0);
  // Serial: transfer then compute.
  const util::Picoseconds io = drv.dma_write(256 * util::kKiB).duration;
  const util::Picoseconds serial_extra = drv.now();
  EXPECT_EQ(serial_extra, io);
  drv.advance_cycles(1'000'000);
  const util::Picoseconds serial = drv.now();
  // Overlapped: the async transfer occupies the bus while the design
  // clock runs; the join is the max, strictly less than the sum.
  drv.dma_write_async(256 * util::kKiB);
  EXPECT_EQ(drv.pending_dma(), 1);
  drv.advance_cycles(1'000'000);
  drv.wait();
  EXPECT_EQ(drv.pending_dma(), 0);
  const util::Picoseconds overlapped = drv.now() - serial;
  EXPECT_LT(overlapped, serial);
  EXPECT_EQ(overlapped,
            std::max(io, drv.board().local_clock().cycles(1'000'000)));
}

TEST(Driver, CrateTraceExportsValidJson) {
  // A real crate schedule (configure + DMA + compute on two boards)
  // exports a parseable Chrome trace with one complete event per
  // transaction.
  AtlantisSystem sys("crate");
  AtlantisDriver d0(sys, sys.add_acb("acb0"));
  AtlantisDriver d1(sys, sys.add_acb("acb1"));
  d0.configure(0, hw::Bitstream::from_design(echo_design()));
  d0.dma_write(16 * util::kKiB);
  d1.dma_write_async(16 * util::kKiB);
  d1.advance_cycles(1000);
  d1.wait();
  std::ostringstream out;
  sys.timeline().export_chrome_trace(out);
  const util::JsonValue doc = util::json_parse(out.str());
  int complete = 0;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X") ++complete;
  }
  EXPECT_EQ(complete, static_cast<int>(sys.timeline().transactions().size()));
  EXPECT_GE(complete, 4);
}

}  // namespace
}  // namespace atlantis::core
