// Board bring-up scenario: what a lab session with a freshly assembled
// ACB looks like — run the self-test suite (configure/readback on every
// FPGA, memory march tests, DMA loopback, S-Link pattern loop), then
// inspect a generated design's netlist and resource report.
//
// Build & run:  ./build/examples/board_bringup
// Output:       bringup_netlist.txt, bringup_graph.dot
#include <cstdio>
#include <fstream>

#include "chdl/export.hpp"
#include "chdl/stats.hpp"
#include "core/selftest.hpp"
#include "hw/slink.hpp"
#include "imgproc/sobel_core.hpp"

using namespace atlantis;

int main() {
  // A board populated the way the 2-D image-processing application
  // would ship it.
  core::AcbBoard board("acb0");
  board.attach_memory(0, core::MemModule::make_image("frames"));
  board.attach_memory(1, core::MemModule::make_trt("aux"));

  std::printf("=== ACB self test ===\n");
  const core::SelfTestReport report =
      core::self_test_acb(board).value_or_throw();
  std::printf("%s", report.to_string().c_str());

  std::printf("\n=== external S-Link check ===\n");
  hw::SlinkChannel link("acb0/lvds0", 32 * 1024, 40.0);
  const core::SelfTestStep slink = core::slink_test(link);
  std::printf("%s: %s (%.1f MB/s peak)\n", slink.name.c_str(),
              slink.passed ? "ok" : "FAILED", link.peak_mbps());

  std::printf("\n=== design inspection ===\n");
  chdl::Design sobel("sobel512");
  imgproc::build_sobel_core(sobel, 512);
  const chdl::NetlistStats stats = chdl::analyze(sobel);
  std::printf("%s\n", stats.to_string().c_str());
  {
    std::ofstream netlist("bringup_netlist.txt");
    netlist << chdl::export_netlist(sobel);
    std::ofstream dot("bringup_graph.dot");
    dot << chdl::export_dot(sobel);
  }
  std::printf("wrote bringup_netlist.txt and bringup_graph.dot\n");

  const bool ok = report.all_passed() && slink.passed;
  std::printf("\nbring-up %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}
