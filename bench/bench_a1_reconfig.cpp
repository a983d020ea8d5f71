// A1 — §2 design claim: "In particular the partial reconfiguration is of
// great interest for co-processing applications involving hardware task
// switches." The ablation: task-switch latency with ORCA partial
// reconfiguration vs full reconfiguration (the Virtex path). Each ORCA
// pair shares a region-signed base and differs in 4, 8, 16 or all 32
// configuration frames, so the switch loads exactly those frames; the
// Virtex pair carries no signatures and always loads the full bitstream.
#include "bench_common.hpp"
#include "core/taskswitch.hpp"
#include "util/table.hpp"

int main() {
  using namespace atlantis;
  bench::banner("A1", "hardware task switching: partial vs full reconfiguration");

  auto make_task = [](const std::string& name) {
    hw::Bitstream bs;
    bs.name = name;
    bs.stats.design_name = name;
    bs.stats.gate_equivalents = 60'000;
    return bs;
  };

  util::Table t("A1: reconfiguration latency and achievable switch rate");
  t.set_header({"device", "mode", "frames", "array fraction", "latency (ms)",
                "switches/s"});
  double orca_partial_ms = 0.0, full_ms = 0.0;
  for (const int frames : {4, 8, 16, 32}) {
    hw::FpgaDevice dev("orca", hw::orca_3t125());
    core::TaskSwitcher sw(dev);
    const int regions = dev.region_count();
    const auto base = hw::make_region_signatures("a1_base", regions);
    for (const char* name : {"a", "b"}) {
      hw::Bitstream bs = make_task(name);
      bs.region_sigs = base;
      hw::stamp_regions(bs.region_sigs, name, 0, frames);
      sw.add_task(bs);
    }
    sw.switch_to("a").value_or_throw();  // initial full load
    const util::Picoseconds lat =
        sw.switch_to("b").value_or_throw();  // partial switch
    const double ms = util::ps_to_ms(lat);
    const double fraction = static_cast<double>(frames) / regions;
    if (frames * 4 == regions) orca_partial_ms = ms;
    t.add_row({"ORCA 3T125", frames < regions ? "partial" : "partial(full array)",
               std::to_string(frames) + "/" + std::to_string(regions),
               util::Table::fmt(fraction, 3), util::Table::fmt(ms, 2),
               util::Table::fmt(1000.0 / ms, 1)});
  }
  {
    hw::FpgaDevice dev("virtex", hw::virtex_xcv600());
    core::TaskSwitcher sw(dev);
    sw.add_task(make_task("a"));
    sw.add_task(make_task("b"));
    sw.switch_to("a").value_or_throw();
    const double ms = util::ps_to_ms(sw.switch_to("b").value_or_throw());
    full_ms = ms;
    t.add_row({"Virtex XCV600", "full (no partial support)", "1/1", "1.000",
               util::Table::fmt(ms, 2), util::Table::fmt(1000.0 / ms, 1)});
  }
  t.add_note("ORCA partial reconfiguration is the ACB's hardware-task-"
             "switch mechanism (§2)");
  t.print();

  bench::expect(orca_partial_ms < full_ms / 2,
                "partial reconfiguration switches tasks much faster than a "
                "full device load");
  bench::expect(1000.0 / orca_partial_ms > 100.0,
                "quarter-array tasks switch at >100 Hz");
  return bench::finish();
}
