// End-to-end integration: one ACB FPGA hardware-task-switches between
// the two gate-level application cores (the §2 co-processing claim),
// with both cores verified against their software references through
// the driver path after every switch.
#include <gtest/gtest.h>

#include "chdl/hostif.hpp"
#include "core/driver.hpp"
#include "core/taskswitch.hpp"
#include "imgproc/conv_core.hpp"
#include "imgproc/filters.hpp"
#include "trt/histogram.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"

namespace atlantis::core {
namespace {

trt::DetectorGeometry tiny_geo() {
  trt::DetectorGeometry geo;
  geo.layers = 6;
  geo.straws_per_layer = 16;
  return geo;
}

TEST(Integration, HardwareTaskSwitchBetweenApplications) {
  AtlantisSystem sys("crate");
  AtlantisDriver drv(sys, sys.add_acb("acb0"));

  // Two application bitstreams over a shared base, each owning the same
  // 12 of the 32 configuration frames.
  const auto base = hw::make_region_signatures("app_base", 32);
  trt::PatternBank bank(tiny_geo(), 12);
  chdl::Design trt_design("trt_task");
  trt::build_trt_core(trt_design, bank);
  hw::Bitstream trt_bs = hw::Bitstream::from_design(trt_design);
  trt_bs.region_sigs = base;
  hw::stamp_regions(trt_bs.region_sigs, "trt_task", 0, 12);

  chdl::Design conv_design("conv_task");
  imgproc::build_conv_core(conv_design, 18,
                           imgproc::Kernel3x3::gaussian());
  hw::Bitstream conv_bs = hw::Bitstream::from_design(conv_design);
  conv_bs.region_sigs = base;
  hw::stamp_regions(conv_bs.region_sigs, "conv_task", 0, 12);

  TaskSwitcher switcher(drv.board().fpga(0));
  switcher.add_task(trt_bs);
  switcher.add_task(conv_bs);

  // --- Task 1: trigger an event ---------------------------------------
  const util::Picoseconds full_load =
      switcher.switch_to("trt_task").value();
  chdl::Simulator* sim = drv.board().fpga(0).sim();
  ASSERT_NE(sim, nullptr);
  {
    chdl::HostInterface host(*sim);
    trt::EventGenerator gen(bank, trt::EventParams{.tracks = 2});
    const trt::Event ev = gen.generate();
    host.write(0x00, 0);
    for (const std::int32_t s : ev.hits) {
      host.write(0x01, static_cast<std::uint64_t>(s));
    }
    host.idle(2);
    const auto ref = trt::histogram_reference(bank, ev);
    for (int p = 0; p < bank.pattern_count(); ++p) {
      EXPECT_EQ(host.read(0x10 + static_cast<std::uint32_t>(p)),
                ref.histogram.counts[static_cast<std::size_t>(p)]);
    }
  }

  // --- Task switch: partial reconfiguration ----------------------------
  const std::uint64_t regions_before = switcher.regions_loaded();
  const util::Picoseconds switch_time =
      switcher.switch_to("conv_task").value();
  EXPECT_EQ(switcher.regions_loaded() - regions_before, 12u);
  EXPECT_LT(switch_time, full_load / 2);
  sim = drv.board().fpga(0).sim();
  ASSERT_NE(sim, nullptr);

  // --- Task 2: filter an image stripe ----------------------------------
  {
    chdl::HostInterface host(*sim);
    util::Rng rng(3);
    imgproc::Gray8 img(16, 6);
    for (auto& px : img.data()) {
      px = static_cast<std::uint8_t>(rng.next_below(256));
    }
    imgproc::Gray8 padded(18, 8);
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 18; ++x) padded(x, y) = img.clamped(x - 1, y - 1);
    }
    host.write(0x00, 0);
    std::vector<std::uint8_t> out;
    for (int y = 0; y < 8; ++y) {
      for (int x = 0; x < 18; ++x) {
        host.write(0x01, padded(x, y));
        out.push_back(static_cast<std::uint8_t>(host.read(0x02)));
      }
    }
    for (int i = 0; i < 4; ++i) {  // flush the pipeline tail
      host.write(0x01, 0);
      out.push_back(static_cast<std::uint8_t>(host.read(0x02)));
    }
    const imgproc::Gray8 ref =
        imgproc::convolve3x3(img, imgproc::Kernel3x3::gaussian());
    bool matched = false;
    for (int offset = 0; offset < 72 && !matched; ++offset) {
      matched = true;
      for (int y = 0; y < 6 && matched; ++y) {
        for (int x = 0; x < 16; ++x) {
          const std::size_t idx =
              static_cast<std::size_t>((y + 1) * 18 + (x + 1)) + offset;
          if (idx >= out.size() || out[idx] != ref(x, y)) {
            matched = false;
            break;
          }
        }
      }
    }
    EXPECT_TRUE(matched) << "convolution task wrong after the switch";
  }

  // --- Switch back: the trigger state starts fresh ----------------------
  switcher.switch_to("trt_task").value();
  sim = drv.board().fpga(0).sim();
  chdl::HostInterface host(*sim);
  for (int p = 0; p < bank.pattern_count(); ++p) {
    EXPECT_EQ(host.read(0x10 + static_cast<std::uint32_t>(p)), 0u);
  }
  EXPECT_EQ(switcher.switch_count(), 3u);
}

TEST(Integration, SwitchRateSupportsEventLevelMultiplexing) {
  // §2: task switching matters for co-processing. Two variants that
  // differ in 12 of the 32 frames (~40% of the array) switch in a few
  // ms — hundreds of switches per second, enough to time-multiplex two
  // applications at camera frame rates.
  hw::FpgaDevice dev("orca", hw::orca_3t125());
  TaskSwitcher sw(dev);
  hw::Bitstream a;
  a.name = "a";
  a.region_sigs = hw::make_region_signatures("base", 32);
  hw::Bitstream b = a;
  b.name = "b";
  hw::stamp_regions(a.region_sigs, "a", 0, 12);
  hw::stamp_regions(b.region_sigs, "b", 0, 12);
  sw.add_task(a);
  sw.add_task(b);
  sw.switch_to("a").value();
  util::Picoseconds total = 0;
  for (int i = 0; i < 10; ++i) {
    total += sw.switch_to(i % 2 == 0 ? "b" : "a").value();
  }
  const double mean_ms = util::ps_to_ms(total) / 10.0;
  EXPECT_LT(mean_ms, 10.0);
  EXPECT_GT(1000.0 / mean_ms, 100.0);
}

}  // namespace
}  // namespace atlantis::core
