// HEP scenario: the TRT second-level trigger end to end.
//
// Builds an ATLANTIS crate with one computing board, loads the LUT
// histogrammer, generates synthetic detector events, and runs the
// trigger three ways:
//   * software reference on the host-CPU model (the workstation side),
//   * ATLANTIS execution model at full scale (80k straws), with event
//     blocks submitted through the JobService like a production client,
//   * bit-accurate CHDL simulation on a reduced geometry.
//
// Build & run:  ./build/examples/trt_trigger
#include <cstdio>
#include <vector>

#include "chdl/hostif.hpp"
#include "core/driver.hpp"
#include "hw/hostcpu.hpp"
#include "serve/jobservice.hpp"
#include "trt/hwmodel.hpp"
#include "trt/serve_adapter.hpp"
#include "trt/trt_core.hpp"

using namespace atlantis;

int main() {
  // --- Full-scale trigger on the execution model ----------------------
  const trt::DetectorGeometry geo;  // 80,000 straws
  trt::PatternBank bank(geo, 1584);
  trt::EventParams ep;
  ep.tracks = 8;
  ep.noise_occupancy = 0.03;
  trt::EventGenerator gen(bank, ep);

  core::AtlantisSystem sys("crate");
  core::AtlantisDriver drv(sys, sys.add_acb("acb0"));
  for (int i = 0; i < 4; ++i) {
    sys.acb(0).attach_memory(i, core::MemModule::make_trt("lut" + std::to_string(i)));
  }
  std::printf("crate: 1 ACB, %d-bit LUT access, %d patterns, %d straws\n",
              sys.acb(0).total_memory_width_bits(), bank.pattern_count(),
              geo.straw_count());

  // The event loop goes through the JobService: the trigger farm is a
  // tenant submitting event blocks, exactly like production clients.
  const int threshold = trt::default_threshold(geo, ep.straw_efficiency);
  constexpr int kEvents = 5;
  trt::TrtHwConfig cfg;
  cfg.ram_width_bits = sys.acb(0).total_memory_width_bits();
  std::vector<trt::Event> events;
  events.reserve(kEvents);
  for (int e = 0; e < kEvents; ++e) events.push_back(gen.generate());

  serve::JobService service(sys);
  service.register_config(hw::Bitstream{"trt_lut", {}, nullptr, 1.0, {}});
  for (const trt::Event& ev : events) {
    (void)service
        .submit(trt::make_histogram_job(bank, ev, cfg, "trigger", "trt_lut"))
        .value();
  }
  const serve::ServiceReport& rep = service.run();
  double eff_sum = 0.0, pur_sum = 0.0;
  for (int e = 0; e < kEvents; ++e) {
    const serve::JobRecord& rec = service.job(static_cast<serve::JobId>(e));
    const trt::Event& ev = events[static_cast<std::size_t>(e)];
    // Re-derive the found-track list from the reference histogram (the
    // hardware result is bit-identical; the job carries its digest).
    const auto found =
        trt::histogram_reference(bank, ev).histogram.tracks_above(threshold);
    const trt::TrackFinderQuality q = trt::score_tracks(ev, found);
    eff_sum += q.efficiency();
    pur_sum += q.purity();
    const double sw_ms = util::ps_to_ms(hw::pentium2_300().time_for_ops(
        trt::histogram_reference_dense(bank, ev).op_count));
    std::printf(
        "event %d: %5zu hits, %2d/%2d true tracks found (purity %.2f), "
        "hw %.2f ms vs sw %.1f ms\n",
        e, ev.hits.size(), q.matched, q.true_tracks, q.purity(),
        util::ps_to_ms(rec.finish - rec.start), sw_ms);
  }
  std::printf("mean efficiency %.3f, mean purity %.3f over %d events\n",
              eff_sum / kEvents, pur_sum / kEvents, kEvents);
  std::printf(
      "service: %llu jobs, %llu batches, %llu full reconfigs, %.0f jobs/s\n",
      static_cast<unsigned long long>(rep.served),
      static_cast<unsigned long long>(rep.batches),
      static_cast<unsigned long long>(rep.full_reconfigs),
      rep.jobs_per_second);

  // --- Reduced geometry, gate level ------------------------------------
  trt::DetectorGeometry tiny;
  tiny.layers = 6;
  tiny.straws_per_layer = 16;
  trt::PatternBank tiny_bank(tiny, 12);
  chdl::Design d("trt_core");
  trt::build_trt_core(d, tiny_bank);
  drv.configure(0, hw::Bitstream::from_design(d));
  chdl::HostInterface* hif = drv.host_if(0);
  trt::EventGenerator tiny_gen(tiny_bank, trt::EventParams{.tracks = 2});
  const trt::Event tev = tiny_gen.generate();
  hif->write(0x00, 0);
  for (const std::int32_t s : tev.hits) {
    hif->write(0x01, static_cast<std::uint64_t>(s));
  }
  hif->idle(2);
  const trt::ReferenceResult ref = trt::histogram_reference(tiny_bank, tev);
  bool identical = true;
  for (int p = 0; p < tiny_bank.pattern_count(); ++p) {
    identical = identical &&
                hif->read(0x10 + static_cast<std::uint32_t>(p)) ==
                    ref.histogram.counts[static_cast<std::size_t>(p)];
  }
  std::printf("gate-level CHDL core vs software reference: %s (%d patterns, "
              "%zu hits)\n",
              identical ? "bit-exact" : "MISMATCH", tiny_bank.pattern_count(),
              tev.hits.size());
  return identical ? 0 : 1;
}
