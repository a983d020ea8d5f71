// E6 — §3.1: "Results show speedup rates in the range from 10 to 1,000
// compared to workstation implementations", with the footnote that the
// top end was "measured on Enable-1 with parallel histogramming only, no
// I/O was needed". This sweep reproduces that spread as a function of
// the two knobs the configurable memory system provides — RAM width
// (176..1408 bit) and pattern count — and of whether I/O is on the
// critical path.
#include "bench_common.hpp"
#include "core/driver.hpp"
#include "hw/hostcpu.hpp"
#include "trt/hwmodel.hpp"
#include "trt/multiboard.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace atlantis;
  bench::banner("E6", "HEP speed-up sweep: RAM width x pattern count x I/O");

  const trt::DetectorGeometry geo;
  util::Table t("E6: speed-up vs Pentium-II/300 software");
  t.set_header({"patterns", "RAM width (bit)", "I/O", "hw time (ms)",
                "sw time (ms)", "speed-up"});

  double min_speedup = 1e9, max_speedup = 0.0;
  for (const int patterns : {240, 1584, 2400}) {
    trt::PatternBank bank(geo, patterns);
    trt::EventParams ep;
    ep.tracks = 10;
    ep.noise_occupancy = 0.03;
    const trt::Event ev = trt::EventGenerator(bank, ep).generate();
    const double sw_ms = util::ps_to_ms(hw::pentium2_300().time_for_ops(
        trt::histogram_reference_dense(bank, ev).op_count));
    for (const int modules : {1, 4, 8}) {
      for (const bool with_io : {true, false}) {
        core::AtlantisSystem sys("crate");
        core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
        trt::TrtHwConfig cfg;
        cfg.ram_width_bits = 176 * modules;
        // Without host I/O the trigger runs from the detector links
        // (the Enable-1 footnote condition) and only hit straws stream.
        cfg.stream_all_straws = with_io;
        const trt::TrtHwResult r = trt::histogram_atlantis(
            bank, ev, cfg, with_io ? &drv : nullptr);
        const double hw_ms = util::ps_to_ms(r.total_time);
        const double speedup = sw_ms / hw_ms;
        min_speedup = std::min(min_speedup, speedup);
        max_speedup = std::max(max_speedup, speedup);
        t.add_row({std::to_string(patterns),
                   std::to_string(176 * modules), with_io ? "host DMA" : "none",
                   util::Table::fmt(hw_ms, 2), util::Table::fmt(sw_ms, 1),
                   util::Table::fmt(speedup, 1)});
      }
    }
  }
  t.add_note("paper: 'speedup rates in the range from 10 to 1,000'; the "
             "top end is histogramming-only with no I/O (Enable-1 footnote)");
  t.print();

  std::printf("\nspeed-up range: %.1f .. %.1f\n", min_speedup, max_speedup);

  // --- crate timeline: contention, overlap and the exported trace ----------
  // One crate, two boards. First both drivers push a 1 MiB block through
  // the shared CompactPCI segment at the same time (the second queues —
  // the delay the scalar ledgers never showed), then the full 2-ACB
  // trigger runs on the backplane. The whole schedule is exported as
  // Chrome-trace JSON for Perfetto / chrome://tracing.
  core::AtlantisSystem crate("crate");
  core::AtlantisDriver d0(crate, crate.add_acb("acb0"));
  core::AtlantisDriver d1(crate, crate.add_acb("acb1"));
  crate.add_aib("aib0");

  const std::uint64_t kBlock = util::kMiB;
  const util::Picoseconds solo =
      d0.board().pci().transfer(hw::DmaDirection::kWrite, kBlock).duration;
  d0.dma(hw::DmaDirection::kWrite, kBlock, /*overlap=*/true).value();
  d1.dma(hw::DmaDirection::kWrite, kBlock, /*overlap=*/true).value();
  const util::Picoseconds shared0 = d0.wait();
  const util::Picoseconds shared1 = d1.wait();
  const sim::ResourceStats pci = crate.timeline().stats(crate.pci_segment());

  trt::PatternBank tl_bank(geo, 1584);
  trt::EventParams tl_ep;
  tl_ep.tracks = 10;
  tl_ep.noise_occupancy = 0.03;
  const trt::Event tl_ev = trt::EventGenerator(tl_bank, tl_ep).generate();
  const trt::MultiBoardResult mb =
      trt::histogram_multiboard(tl_bank, tl_ev, trt::MultiBoardConfig{}, crate);

  bench::timeline_stats(crate.timeline(),
                        "E6: crate timeline, per resource (2-ACB run)");
  const bool trace_ok =
      crate.timeline().export_chrome_trace_file("TRACE_hep_sweep.json");
  std::printf("\nwrote TRACE_hep_sweep.json (%d resources, %d tracks, "
              "%zu transactions)\n",
              crate.timeline().resource_count(),
              crate.timeline().track_count(),
              crate.timeline().transactions().size());

  bench::expect(min_speedup > 0.8, "FPGA never loses to the workstation");
  bench::expect(max_speedup > 100.0,
                "I/O-free parallel histogramming reaches the 100-1000 regime");
  bench::expect(max_speedup / min_speedup > 30.0,
                "configuration spread spans more than an order of magnitude");
  bench::expect(std::max(shared0, shared1) >= 2 * solo,
                "two boards sharing CompactPCI serialize (second queues)");
  bench::expect(pci.queue_delay > 0,
                "the PCI segment records the queuing delay");
  bench::expect(mb.total_time > 0 && mb.compute_time > 0,
                "the 2-ACB trigger ran on the crate timeline");
  bench::expect(trace_ok, "Chrome-trace export written");
  return bench::finish();
}
