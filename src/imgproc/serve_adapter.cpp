#include "imgproc/serve_adapter.hpp"

namespace atlantis::imgproc {

serve::JobSpec make_filter_job(Gray8 tile, Kernel3x3 kernel, ImgHwConfig cfg,
                               std::string tenant, std::string config,
                               util::Picoseconds arrival) {
  serve::JobSpec spec;
  spec.tenant = std::move(tenant);
  spec.kind = serve::JobKind::kImgTile;
  spec.config = std::move(config);
  spec.arrival = arrival;
  spec.work = [tile = std::move(tile), kernel, cfg]() {
    serve::JobOutcome out;
    const Gray8 filtered = convolve3x3(tile, kernel);
    out.checksum = serve::digest(filtered.data());
    const std::uint64_t pixels =
        static_cast<std::uint64_t>(tile.width()) *
        static_cast<std::uint64_t>(tile.height());
    const ImgHwResult r =
        filter_atlantis(tile.width(), tile.height(), cfg, nullptr);
    out.compute_time = r.compute_time;
    out.dma_in_bytes = pixels;   // frame in, one byte per pixel
    out.dma_out_bytes = pixels;  // result out
    return out;
  };
  return spec;
}

}  // namespace atlantis::imgproc
