// A1 — §2 design claim: "In particular the partial reconfiguration is of
// great interest for co-processing applications involving hardware task
// switches." The ablation: task-switch latency with ORCA partial
// reconfiguration vs full reconfiguration (the Virtex path).
#include "bench_common.hpp"
#include "core/taskswitch.hpp"
#include "util/table.hpp"

int main() {
  using namespace atlantis;
  bench::banner("A1", "hardware task switching: partial vs full reconfiguration");

  auto make_task = [](const std::string& name, double fraction) {
    hw::Bitstream bs;
    bs.name = name;
    bs.stats.design_name = name;
    bs.stats.gate_equivalents = 60'000;
    bs.fraction = fraction;
    return bs;
  };

  util::Table t("A1: reconfiguration latency and achievable switch rate");
  t.set_header({"device", "mode", "array fraction", "latency (ms)",
                "switches/s"});
  double orca_partial_ms = 0.0, full_ms = 0.0;
  for (const double fraction : {0.1, 0.25, 0.5, 1.0}) {
    hw::FpgaDevice dev("orca", hw::orca_3t125());
    core::TaskSwitcher sw(dev);
    sw.add_task(make_task("a", fraction));
    sw.add_task(make_task("b", fraction));
    sw.switch_to("a").value_or_throw();  // initial full load
    const util::Picoseconds lat =
        sw.switch_to("b").value_or_throw();  // partial switch
    const double ms = util::ps_to_ms(lat);
    if (fraction == 0.25) orca_partial_ms = ms;
    t.add_row({"ORCA 3T125", fraction < 1.0 ? "partial" : "partial(full array)",
               util::Table::fmt(fraction, 2), util::Table::fmt(ms, 2),
               util::Table::fmt(1000.0 / ms, 1)});
  }
  {
    hw::FpgaDevice dev("virtex", hw::virtex_xcv600());
    core::TaskSwitcher sw(dev);
    sw.add_task(make_task("a", 0.25));
    sw.add_task(make_task("b", 0.25));
    sw.switch_to("a").value_or_throw();
    const double ms = util::ps_to_ms(sw.switch_to("b").value_or_throw());
    full_ms = ms;
    t.add_row({"Virtex XCV600", "full (no partial support)", "1.00",
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
