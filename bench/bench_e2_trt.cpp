// E2 — §3.4 "HEP": TRT full-scan histogramming.
//
// Paper: "The execution time on the test system (algorithm plus I/O),
// 19.2 ms compared to 35 ms using a C++ implementation on a Pentium-
// II/300 standard PC, extrapolates to 2.7 ms using 2 ACB with 4 memory
// modules each (1408 bit RAM access). This corresponds to a speed-up by
// a factor of 13."
#include <algorithm>
#include <fstream>

#include "bench_common.hpp"
#include "core/driver.hpp"
#include "hw/hostcpu.hpp"
#include "trt/hwmodel.hpp"
#include "trt/multiboard.hpp"
#include "util/table.hpp"

int main() {
  using namespace atlantis;
  bench::banner("E2", "TRT full-scan histogramming: ATLANTIS vs Pentium-II/300");

  const trt::DetectorGeometry geo;  // 80,000 straws
  const int patterns = 1584;        // B-physics scan bank (240..2400 range)
  trt::PatternBank bank(geo, patterns);
  trt::EventParams ep;
  ep.tracks = 10;
  ep.noise_occupancy = 0.03;
  trt::EventGenerator gen(bank, ep);
  const trt::Event ev = gen.generate();

  // Software baseline: the dense LUT walk on the Pentium-II/300 model.
  const trt::ReferenceResult sw = trt::histogram_reference_dense(bank, ev);
  const double sw_ms =
      util::ps_to_ms(hw::pentium2_300().time_for_ops(sw.op_count));

  auto run_hw = [&](int width_bits, bool ideal, bool overlap = false) {
    core::AtlantisSystem sys("crate");
    core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
    trt::TrtHwConfig cfg;
    cfg.ram_width_bits = width_bits;
    cfg.ideal_packing = ideal;
    cfg.overlap_io = overlap;
    return trt::histogram_atlantis(bank, ev, cfg, &drv);
  };
  const trt::TrtHwResult one = run_hw(176, false);    // measured system
  const trt::TrtHwResult eight = run_hw(1408, false); // honest datapath
  const trt::TrtHwResult ideal = run_hw(1408, true);  // paper's linear extrap.
  // Same measured system, but the image DMA streams in under the scan
  // (an overlapped dma() + wait() on the crate timeline instead of chained
  // calls).
  const trt::TrtHwResult olap = run_hw(176, false, true);

  // The 2-ACB system modelled end to end: image broadcast over the
  // backplane, parallel slice histogramming, partial-histogram collect.
  core::AtlantisSystem crate("crate2");
  crate.add_acb("acb0");
  crate.add_acb("acb1");
  crate.add_aib("aib0");
  const trt::MultiBoardResult two_board =
      trt::histogram_multiboard(bank, ev, trt::MultiBoardConfig{}, crate);

  const double one_ms = util::ps_to_ms(one.total_time);
  const double eight_ms = util::ps_to_ms(eight.total_time);
  const double ideal_ms = util::ps_to_ms(ideal.total_time);
  const double two_ms = util::ps_to_ms(two_board.total_time);
  const double olap_ms = util::ps_to_ms(olap.total_time);

  util::Table t("E2: 80k-straw event, 1584 patterns, 40 MHz design");
  t.set_header({"configuration", "paper (ms)", "measured (ms)", "speed-up vs SW"});
  t.add_row({"Pentium-II/300 C++ (dense LUT walk)", "35",
             util::Table::fmt(sw_ms, 1), "1.0"});
  t.add_row({"1 ACB, 1 module (176-bit RAM), incl. I/O", "19.2",
             util::Table::fmt(one_ms, 1), util::Table::fmt(sw_ms / one_ms, 1)});
  t.add_row({"1 ACB, 1 module, image DMA overlapped with scan", "-",
             util::Table::fmt(olap_ms, 1),
             util::Table::fmt(sw_ms / olap_ms, 1)});
  t.add_row({"2 ACB x 4 modules (1408-bit), quantized passes", "-",
             util::Table::fmt(eight_ms, 1),
             util::Table::fmt(sw_ms / eight_ms, 1)});
  t.add_row({"2 ACB system model (backplane broadcast + collect)", "-",
             util::Table::fmt(two_ms, 1),
             util::Table::fmt(sw_ms / two_ms, 1)});
  t.add_row({"2 ACB x 4 modules, linear extrapolation (paper's method)",
             "2.7", util::Table::fmt(ideal_ms, 1),
             util::Table::fmt(sw_ms / ideal_ms, 1)});
  t.add_note("paper speed-up 13 uses the linear extrapolation row");
  t.print();

  std::ofstream json("BENCH_trt.json");
  json << "{\n  \"patterns\": " << patterns
       << ",\n  \"software_ms\": " << sw_ms
       << ",\n  \"one_board_ms\": " << one_ms
       << ",\n  \"one_board_overlap_ms\": " << olap_ms
       << ",\n  \"eight_module_ms\": " << eight_ms
       << ",\n  \"ideal_extrapolation_ms\": " << ideal_ms
       << ",\n  \"two_board_ms\": " << two_ms
       << ",\n  \"two_board_phases_ms\": {\"broadcast\": "
       << util::ps_to_ms(two_board.broadcast_time)
       << ", \"compute\": " << util::ps_to_ms(two_board.compute_time)
       << ", \"collect\": " << util::ps_to_ms(two_board.collect_time) << "}"
       << ",\n  \"speedup_measured\": " << sw_ms / one_ms
       << ",\n  \"speedup_extrapolated\": " << sw_ms / ideal_ms << "\n}\n";
  json.close();
  std::printf("\nwrote BENCH_trt.json\n");

  bench::expect(sw_ms > 25.0 && sw_ms < 50.0,
                "software baseline lands near the measured 35 ms");
  bench::expect(one_ms > 14.0 && one_ms < 25.0,
                "single-module system lands near the measured 19.2 ms");
  bench::expect(one_ms < sw_ms, "ATLANTIS beats the workstation at 1 module");
  bench::expect(ideal_ms < 4.5, "extrapolated system lands near 2.7 ms");
  const double speedup = sw_ms / ideal_ms;
  bench::expect(speedup > 8.0 && speedup < 20.0,
                "extrapolated speed-up is in the paper's factor-13 regime");
  bench::expect(eight.histogram.counts == one.histogram.counts &&
                    two_board.histogram.counts == one.histogram.counts,
                "all configurations compute identical histograms");
  bench::expect(two_ms < one_ms,
                "the modelled 2-ACB system beats the single board");
  bench::expect(olap.total_time < one.total_time,
                "overlapping the image DMA with the scan beats the "
                "sequential schedule");
  bench::expect(olap.total_time ==
                    std::max(olap.io_in_time, olap.compute_time) +
                        olap.readout_time,
                "overlapped total is max(io, compute) + readout exactly");
  return bench::finish();
}
