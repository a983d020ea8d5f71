// A4 — §2.5 tooling claims: CHDL designs are generated by ordinary C++
// programs, simulate without a hand-written test bench, and must fit the
// published device budgets (ORCA 3T125: ~186k gates, 422 I/O; the ACB
// matrix: 744k gates). The harness generates the application cores at
// several scales, reports their resource footprints and shows where the
// capacity check starts rejecting them.
//
// Gate/FF/RAM numbers deliberately come from the *as-elaborated* netlist
// (chdl::analyze on the Design): the simulator's optimizer (fold +
// CSE) never mutates the Design, so fit accounting here models the
// structure handed to place-and-route, not the simulation shortcut.
#include "bench_common.hpp"
#include "chdl/stats.hpp"
#include "hw/fpga.hpp"
#include "imgproc/conv_core.hpp"
#include "trt/trt_core.hpp"
#include "util/table.hpp"

int main() {
  using namespace atlantis;
  bench::banner("A4", "CHDL resource budgets vs the ORCA 3T125");

  hw::FpgaDevice orca("orca", hw::orca_3t125());
  util::Table t("A4: generated cores vs the 186k-gate / 432-pin device");
  t.set_header({"core", "gate-eq", "FF", "RAM bits", "fits ORCA?"});

  bool small_fits = false, huge_rejected = false;
  std::int64_t gates_256 = 0, gates_1024 = 0;
  for (const int patterns : {64, 256, 1024, 4096}) {
    trt::DetectorGeometry geo;
    geo.layers = 16;
    geo.straws_per_layer = 64;
    trt::PatternBank bank(geo, patterns);
    chdl::Design d("trt_" + std::to_string(patterns));
    trt::build_trt_core(d, bank);
    const chdl::NetlistStats s = chdl::analyze(d);
    bool fits = true;
    try {
      orca.configure(hw::Bitstream::from_design(d));
    } catch (const util::CapacityError&) {
      fits = false;
    }
    if (patterns == 64) small_fits = fits;
    if (patterns == 256) gates_256 = s.gate_equivalents;
    if (patterns == 1024) gates_1024 = s.gate_equivalents;
    if (patterns == 4096) huge_rejected = !fits;
    t.add_row({"TRT histogrammer, " + std::to_string(patterns) + " patterns",
               std::to_string(s.gate_equivalents), std::to_string(s.flipflops),
               std::to_string(s.ram_bits), fits ? "yes" : "NO (rejected)"});
  }
  for (const int width : {256, 1024}) {
    chdl::Design d("conv_" + std::to_string(width));
    imgproc::build_conv_core(d, width, imgproc::Kernel3x3::gaussian());
    const chdl::NetlistStats s = chdl::analyze(d);
    bool fits = true;
    try {
      orca.configure(hw::Bitstream::from_design(d));
    } catch (const util::CapacityError&) {
      fits = false;
    }
    t.add_row({"3x3 convolution engine, width " + std::to_string(width),
               std::to_string(s.gate_equivalents), std::to_string(s.flipflops),
               std::to_string(s.ram_bits), fits ? "yes" : "NO (rejected)"});
  }
  t.add_note("4-chip ACB budget: 744k gates; per-chip 186k and 432 pins");
  t.print();

  bench::expect(small_fits, "application-scale cores fit one ORCA");
  bench::expect(huge_rejected,
                "the capacity check rejects a 4096-counter monster");
  bench::expect(gates_1024 > 3 * gates_256,
                "resource model scales with generated structure");
  return bench::finish();
}
