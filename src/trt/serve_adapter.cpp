#include "trt/serve_adapter.hpp"

#include "util/bitops.hpp"

namespace atlantis::trt {

serve::JobSpec make_histogram_job(const PatternBank& bank, const Event& ev,
                                  const TrtHwConfig& cfg, std::string tenant,
                                  std::string config,
                                  util::Picoseconds arrival) {
  serve::JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.kind = serve::JobKind::kTrtEvent;
  spec.config = std::move(config);
  spec.arrival = arrival;
  spec.work = [&bank, &ev, cfg]() {
    serve::JobOutcome out;
    const TrtHwResult r = histogram_atlantis(bank, ev, cfg, nullptr);
    out.checksum = serve::digest(r.histogram.counts);
    out.compute_time = r.compute_time;
    // Event image in (one bit per straw, packed), 16-bit counters out —
    // the same byte model histogram_atlantis applies when driven live.
    out.dma_in_bytes = util::ceil_div(
        static_cast<std::uint64_t>(bank.geometry().straw_count()), 8);
    out.dma_out_bytes = static_cast<std::uint64_t>(bank.pattern_count()) * 2;
    return out;
  };
  return spec;
}

}  // namespace atlantis::trt
