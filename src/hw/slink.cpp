#include "hw/slink.hpp"

#include "util/rng.hpp"

namespace atlantis::hw {

SlinkChannel::SlinkChannel(std::string name, std::size_t fifo_words,
                           double clock_mhz)
    : name_(std::move(name)), fifo_depth_(fifo_words), clock_mhz_(clock_mhz) {
  ATLANTIS_CHECK(fifo_words > 0, "S-Link buffer must not be empty");
  ATLANTIS_CHECK(clock_mhz > 0.0, "S-Link clock must be positive");
}

bool SlinkChannel::send(const SlinkWord& word) {
  if (injector_ != nullptr) {
    if (forced_xoff_ == 0) {
      if (const auto hit =
              injector_->draw(sim::FaultKind::kSlinkXoff, fault_site_)) {
        // Persistent XOFF: the link refuses this word and the next few,
        // as if the receive card's buffer logic wedged.
        forced_xoff_ = 1 + hit->param % 16;
      }
    }
    if (forced_xoff_ > 0) {
      --forced_xoff_;
      return false;
    }
  }
  if (xoff()) return false;
  SlinkWord delivered = word;
  if (injector_ != nullptr) {
    if (const auto hit =
            injector_->draw(sim::FaultKind::kSlinkError, fault_site_)) {
      // LDERR: the word arrives flagged, its payload corrupted by a
      // non-zero mask drawn from the site stream.
      delivered.payload ^= static_cast<std::uint32_t>(hit->param) | 1u;
      delivered.lderr = true;
      ++link_errors_;
    }
  }
  fifo_.push_back(delivered);
  return true;
}

util::Result<std::size_t> SlinkChannel::send_fragment(
    std::uint32_t event_id, const std::vector<std::uint32_t>& payload) {
  const auto fail = [&](util::ErrorCode code, const std::string& what) {
    return util::Result<std::size_t>::failure(
        code, "slink " + name_ + ": fragment " + std::to_string(event_id) +
                  what);
  };
  std::size_t accepted = 0;
  std::size_t corrupted = 0;
  // Offers one word; an accepted word is the FIFO's last, LDERR and all.
  const auto offer = [&](SlinkWord w) {
    if (!send(w)) return false;
    ++accepted;
    if (fifo_.back().lderr) ++corrupted;
    return true;
  };
  const auto refused = [&] {
    return fail(util::ErrorCode::kXoff, " refused by flow control after " +
                                            std::to_string(accepted) +
                                            " words");
  };
  if (!offer({kBeginFragment | (event_id & 0xFFFFF), true})) return refused();
  for (const std::uint32_t w : payload) {
    if (!offer({w, false})) return refused();
  }
  if (injector_ != nullptr &&
      injector_->draw(sim::FaultKind::kSlinkTruncation, fault_site_)) {
    // Truncated frame: the end marker is lost in transit; the receiver
    // only notices when the next begin marker shows up.
    ++truncated_frames_;
    return fail(util::ErrorCode::kTruncatedFrame, " lost its end marker");
  }
  if (!offer({kEndFragment | (event_id & 0xFFFFF), true})) return refused();
  if (corrupted > 0) {
    return fail(util::ErrorCode::kLinkError,
                " carried " + std::to_string(corrupted) +
                    " corrupted word(s)");
  }
  return accepted;
}

std::optional<SlinkWord> SlinkChannel::receive() {
  if (head_ >= fifo_.size()) return std::nullopt;
  const SlinkWord w = fifo_[head_++];
  // Compact occasionally so the vector does not grow without bound.
  if (head_ > 4096 && head_ * 2 > fifo_.size()) {
    fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return w;
}

const sim::Transaction& SlinkChannel::post_stream(sim::TrackId track,
                                                  std::uint64_t words,
                                                  util::Picoseconds not_before,
                                                  std::string label) {
  ATLANTIS_CHECK(bound(), "S-Link channel is not bound to a timeline");
  if (label.empty()) label = name_ + " stream";
  if (injector_ != nullptr &&
      injector_->draw(sim::FaultKind::kSlinkError, fault_site_)) {
    // A transmission error somewhere in the stream: the whole block is
    // retransmitted (S-Link has no partial-retry granularity), so each
    // retransmission wastes one transfer_time(words) pass.
    const sim::Transaction& bad =
        timeline_->post(track, sim::TxnKind::kSlinkStream, label + " (lderr)",
                        resource_, not_before, transfer_time(words),
                        words * 4);
    const util::Picoseconds bad_end = bad.end;
    ++link_errors_;
    ++retransmissions_;
    // post() invalidates `bad`; only the captured times are used below.
    return timeline_->post(track, sim::TxnKind::kSlinkStream,
                           label + " (retransmit)", resource_, bad_end,
                           transfer_time(words), words * 4);
  }
  return timeline_->post(track, sim::TxnKind::kSlinkStream, std::move(label),
                         resource_, not_before, transfer_time(words),
                         words * 4);
}

bool SlinkChannel::self_test(int words) {
  util::Rng rng(0x51'1A'CB);
  std::vector<std::uint32_t> pattern;
  pattern.reserve(static_cast<std::size_t>(words));
  for (int i = 0; i < words; ++i) {
    pattern.push_back(static_cast<std::uint32_t>(rng.next_u64()));
  }
  // Drain whatever is buffered, then loop the pattern through.
  while (receive().has_value()) {
  }
  for (const std::uint32_t w : pattern) {
    if (!send({w, false})) return false;
  }
  for (const std::uint32_t w : pattern) {
    const auto got = receive();
    if (!got || got->control || got->payload != w) return false;
  }
  return true;
}

}  // namespace atlantis::hw
