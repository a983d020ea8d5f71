#include "trt/slink_frontend.hpp"

#include <cmath>

#include "util/status.hpp"

namespace atlantis::trt {

util::Result<std::size_t> send_event(hw::SlinkChannel& link, const Event& ev,
                                     std::uint32_t event_id) {
  std::vector<std::uint32_t> payload;
  payload.reserve(ev.hits.size());
  for (const std::int32_t s : ev.hits) {
    payload.push_back(static_cast<std::uint32_t>(s));
  }
  return link.send_fragment(event_id, payload);
}

std::optional<std::pair<std::uint32_t, std::vector<std::int32_t>>>
receive_event(hw::SlinkChannel& link) {
  // Peek-less scan: we consume words; a complete fragment must be
  // present, otherwise the consumed prefix is re-buffered by the caller
  // pattern (the trigger polls only when a fragment-complete interrupt
  // fired; here we conservatively require begin..end to be buffered).
  std::optional<std::uint32_t> event_id;
  std::vector<std::int32_t> hits;
  while (auto w = link.receive()) {
    if (w->control) {
      const std::uint32_t marker = w->payload & 0xFFF00000;
      const std::uint32_t id = w->payload & 0xFFFFF;
      if (marker == (hw::SlinkChannel::kBeginFragment & 0xFFF00000)) {
        if (event_id.has_value()) {
          throw util::Error("nested S-Link begin-fragment marker");
        }
        event_id = id;
        hits.clear();
      } else if (marker == (hw::SlinkChannel::kEndFragment & 0xFFF00000)) {
        if (!event_id.has_value() || *event_id != id) {
          throw util::Error("unmatched S-Link end-fragment marker");
        }
        return std::make_pair(*event_id, std::move(hits));
      } else {
        throw util::Error("unknown S-Link control word");
      }
    } else {
      if (!event_id.has_value()) {
        throw util::Error("S-Link data outside a fragment");
      }
      hits.push_back(static_cast<std::int32_t>(w->payload));
    }
  }
  if (event_id.has_value()) {
    throw util::Error("S-Link stream ended mid-fragment");
  }
  return std::nullopt;
}

LinkBudget slink_budget(double mean_hits, double event_rate_khz,
                        double link_mhz) {
  ATLANTIS_CHECK(mean_hits >= 0.0 && event_rate_khz > 0.0 && link_mhz > 0.0,
                 "invalid link budget parameters");
  LinkBudget b;
  const double words_per_event = mean_hits + 2.0;  // framing
  b.mbps_needed = words_per_event * 4.0 * event_rate_khz * 1e3 / 1e6;
  b.mbps_per_link = link_mhz * 4.0;
  b.links_needed =
      static_cast<int>(std::ceil(b.mbps_needed / b.mbps_per_link));
  return b;
}

}  // namespace atlantis::trt
