// ATLANTIS execution model of the TRT histogrammer.
//
// The hardware streams the detector image through the memory-resident
// LUT: one straw per clock per pass, where a pass covers as many patterns
// as the attached memory modules are wide ("706 straws can be processed
// simultaneously on a single ACB board equipped with 4 memory modules").
// Counters live in FPGA registers; after the scan the histogram is read
// back over PCI. Functionally the result is identical to the software
// reference; the value the model adds is the cycle/time account.
#pragma once

#include <cstdint>
#include <optional>

#include "core/driver.hpp"
#include "trt/histogram.hpp"
#include "util/units.hpp"

namespace atlantis::trt {

struct TrtHwConfig {
  double clock_mhz = 40.0;    // "design speed 40 MHz"
  int ram_width_bits = 176;   // total LUT width (176 per module)
  /// Full-scan mode streams every straw; otherwise only hit straws are
  /// pushed (requires a hit-list front-end).
  bool stream_all_straws = true;
  /// The paper's 2.7 ms extrapolation divides linearly by the width
  /// ratio; the real datapath quantizes to whole passes. `ideal_packing`
  /// selects the linear model (reported side by side in bench_e2).
  bool ideal_packing = false;
  int pipeline_depth = 8;
  /// Histogram read-back: counters drained one per clock.
  bool include_readout = true;
  /// Streams the event image with an overlapped DMA that runs under the
  /// LUT scan (the hardware consumes straws as they arrive), instead of
  /// paying image-in and compute back to back. Needs a driver; the
  /// sequential default reproduces the pre-timeline ledger exactly.
  bool overlap_io = false;
};

struct TrtHwResult {
  TrackHistogram histogram;
  std::uint64_t compute_cycles = 0;
  util::Picoseconds compute_time = 0;
  util::Picoseconds io_in_time = 0;    // event image DMA to the board
  util::Picoseconds readout_time = 0;  // histogram DMA back
  util::Picoseconds total_time = 0;
  double passes = 0.0;  // LUT accesses per straw
};

/// Runs the model. When `driver` is provided the event image and the
/// histogram read-back go through its DMA model (and its time ledger);
/// otherwise only compute time is reported.
TrtHwResult histogram_atlantis(const PatternBank& bank, const Event& ev,
                               const TrtHwConfig& cfg,
                               core::AtlantisDriver* driver = nullptr);

/// Software baselines.
///
/// The dense walk mirrors the hardware algorithm word by word — fetch
/// every straw's LUT row and scan it — which is what a direct C++ port
/// of the trigger looked like and what the paper's 35 ms measures.
ReferenceResult histogram_reference_dense(const PatternBank& bank,
                                          const Event& ev);

}  // namespace atlantis::trt
