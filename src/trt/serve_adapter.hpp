// JobService adapter for the TRT trigger: one event block per job.
#pragma once

#include <string>

#include "serve/job.hpp"
#include "trt/hwmodel.hpp"

namespace atlantis::trt {

/// Builds a serving-layer job that histograms one event through the
/// ATLANTIS execution model. `bank` and `ev` are captured by reference
/// and must outlive the service run. The checksum digests the full
/// histogram, so bit-identical results are one comparison.
serve::JobSpec make_histogram_job(const PatternBank& bank, const Event& ev,
                                  const TrtHwConfig& cfg, std::string tenant,
                                  std::string config,
                                  util::Picoseconds arrival = 0);

}  // namespace atlantis::trt
