// Detector front end over S-Link.
//
// In the deployed system the TRT images arrive over S-Link from the
// readout buffers, not over host PCI — that is how the trigger escapes
// the I/O bottleneck §3.4 identifies for the coprocessor configuration,
// and what the ACB's external LVDS connectors are for ("to set up a
// downscaled or test system"). Events travel as fragments of hit-straw
// words; the budget calculator answers whether a link configuration
// sustains the experiment's 100 kHz repetition rate.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hw/slink.hpp"
#include "trt/events.hpp"

namespace atlantis::trt {

/// Sends one event as an S-Link fragment (one 32-bit word per hit straw).
/// Returns SlinkChannel::send_fragment's outcome: the link words accepted
/// (hits + 2 framing words), or the link fault that cut the fragment.
util::Result<std::size_t> send_event(hw::SlinkChannel& link, const Event& ev,
                                     std::uint32_t event_id);

/// Receives one complete fragment, if available: (event id, hit list).
/// Returns nullopt when no complete fragment is buffered; throws on a
/// malformed stream (data outside a fragment, nested begin markers).
std::optional<std::pair<std::uint32_t, std::vector<std::int32_t>>>
receive_event(hw::SlinkChannel& link);

/// Bandwidth budget for a detector feed.
struct LinkBudget {
  double mbps_needed = 0.0;
  double mbps_per_link = 0.0;
  int links_needed = 0;

  bool feasible(int links_available) const {
    return links_needed <= links_available;
  }
};

/// `mean_hits` hit words per event at `event_rate_khz`, over S-Links at
/// `link_mhz` (32-bit words, one per link clock).
LinkBudget slink_budget(double mean_hits, double event_rate_khz,
                        double link_mhz = 40.0);

}  // namespace atlantis::trt
