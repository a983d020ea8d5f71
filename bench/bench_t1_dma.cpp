// T1 — Table 1 of §3.4: ATLANTIS DMA performance over CompactPCI.
//
// "Following are some results showing the data throughput over CPCI for
// various applications, measured with ATLANTIS, microenable driver,
// design speed 40 MHz." The numeric cells of the table are lost in the
// available scan (see DESIGN.md); the properties the surrounding text
// fixes are checked instead: throughput grows with block size
// (setup-latency amortization), posted writes beat reads, and the
// sustained rate saturates below the stated 125 MB/s maximum.
//
// The sweep runs on the crate timeline; the per-resource table and
// BENCH_dma.json report what the CompactPCI segment saw, and the ledger
// check proves the driver's cursor, now(), equals the scalar sum of
// transfer durations (single driver, no contention — nothing queues).
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace atlantis;
  bench::banner("T1", "DMA performance vs block size (Table 1)");

  core::AtlantisSystem sys("crate");
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  drv.set_design_clock(40.0);  // the paper's measurement condition

  util::Table table("Table 1. ATLANTIS DMA performance (microenable driver, 40 MHz design)");
  table.set_header({"Block size (kByte)", "DMA Read perf. (MB/s)",
                    "DMA Write perf. (MB/s)"});
  std::vector<std::uint64_t> blocks{1, 4, 16, 64, 256, 1024};
  std::vector<double> reads, writes;
  util::Picoseconds ledger_sum = 0;  // hand-summed durations for the check
  for (const std::uint64_t kb : blocks) {
    const hw::DmaTransfer r =
        drv.dma(hw::DmaDirection::kRead, kb * util::kKiB).value_or_throw();
    const hw::DmaTransfer w =
        drv.dma(hw::DmaDirection::kWrite, kb * util::kKiB).value_or_throw();
    ledger_sum += r.duration + w.duration;
    reads.push_back(r.mbps());
    writes.push_back(w.mbps());
    table.add_row({std::to_string(kb), util::Table::fmt(r.mbps(), 1),
                   util::Table::fmt(w.mbps(), 1)});
  }
  table.add_note("paper cells lost in the scan; shape checks below encode "
                 "the in-text constraints (125 MB/s max, read < write)");
  table.print();

  bench::timeline_stats(sys.timeline(), "T1: crate timeline, per resource");

  const sim::ResourceStats pci = sys.timeline().stats(sys.pci_segment());
  std::ofstream json("BENCH_dma.json");
  json << "{\n  \"design_clock_mhz\": 40.0,\n  \"blocks\": [";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    json << (i != 0 ? ", " : "") << "{\"kbyte\": " << blocks[i]
         << ", \"read_mbps\": " << reads[i]
         << ", \"write_mbps\": " << writes[i] << "}";
  }
  json << "],\n  \"elapsed_ms\": " << util::ps_to_ms(drv.now())
       << ",\n  \"pci_segment\": {\"transactions\": " << pci.transactions
       << ", \"bytes\": " << pci.bytes
       << ", \"busy_ms\": " << util::ps_to_ms(pci.busy)
       << ", \"queue_ms\": " << util::ps_to_ms(pci.queue_delay)
       << ", \"utilization\": "
       << pci.utilization(sys.timeline().horizon()) << "}\n}\n";
  json.close();
  std::printf("\nwrote BENCH_dma.json\n");

  bool monotone = true;
  for (std::size_t i = 1; i < reads.size(); ++i) {
    monotone = monotone && reads[i] > reads[i - 1] && writes[i] > writes[i - 1];
  }
  bench::expect(monotone, "throughput grows with block size");
  bool read_below_write = true;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    read_below_write = read_below_write && reads[i] < writes[i];
  }
  bench::expect(read_below_write, "DMA read trails DMA write (posted writes)");
  bench::expect(writes.back() > 100.0 && writes.back() <= 125.0,
                "large-block write saturates near the 125 MB/s max");
  bench::expect(reads.front() < 30.0,
                "small blocks dominated by driver/DMA setup");
  bench::expect(drv.now() == ledger_sum,
                "the driver cursor is bit-identical to the scalar ledger");
  bench::expect(pci.queue_delay == 0,
                "single driver: nothing queues on the CompactPCI segment");
  return bench::finish();
}
