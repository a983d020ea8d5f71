// S-Link model.
//
// "S-Link is a FIFO-like CERN internal standard for point-to-point
// links" (§2.1 footnote). The ACB's external-LVDS FPGA and the AIB
// mezzanines carry S-Link interfaces to the detector readout. The model
// is the protocol's visible behaviour: a unidirectional word stream with
// control words marking event fragments, link-full flow control (XOFF)
// and an error/test mode, at a configurable link clock.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::hw {

/// One 32-bit S-Link transfer: data word or control word (fragment
/// delimiters carry an event id in the payload).
struct SlinkWord {
  std::uint32_t payload = 0;
  bool control = false;
  /// Transmission-error flag (the S-Link LDERR line): the word arrived,
  /// but its payload is corrupted and the receiver must discard it.
  bool lderr = false;
  bool operator==(const SlinkWord&) const = default;
};

class SlinkChannel {
 public:
  /// `fifo_words`: receive-side buffer; the link asserts XOFF when it
  /// fills and words offered during XOFF are refused (the sender's link
  /// card retries them).
  SlinkChannel(std::string name, std::size_t fifo_words = 1024,
               double clock_mhz = 40.0);

  const std::string& name() const { return name_; }
  double clock_mhz() const { return clock_mhz_; }

  /// Sender side: offers one word; returns false on XOFF (buffer full).
  bool send(const SlinkWord& word);

  /// Convenience: send an event fragment (begin marker, payload, end
  /// marker). Returns words accepted; stops early on XOFF.
  std::size_t send_fragment(std::uint32_t event_id,
                            const std::vector<std::uint32_t>& payload);

  /// Recoverable dual (the try_dma_* convention): the fault outcome of
  /// one fragment send comes back as an ErrorCode instead of having to
  /// be reverse-engineered from the counters — kXoff when flow control
  /// refused words (fragment incomplete), kTruncatedFrame when the end
  /// marker was lost, kLinkError when a payload word arrived with LDERR
  /// set. Success carries the words accepted.
  util::Result<std::size_t> try_send_fragment(
      std::uint32_t event_id, const std::vector<std::uint32_t>& payload);

  /// Receiver side: pops the next word if available.
  std::optional<SlinkWord> receive();

  bool xoff() const { return buffered() >= fifo_depth_; }
  std::size_t buffered() const { return fifo_.size() - head_; }

  /// Snapshottable leaf: FIFO contents (compacted from head_) plus the
  /// link counters and any in-progress injected XOFF burst, written into
  /// the caller's open section.
  void save_state(sim::SnapshotWriter& w) const { walk(*this, w); }
  void load_state(sim::SnapshotReader& r) { walk(*this, r); }

  /// Link-level statistics.
  std::uint64_t words_sent() const { return sent_; }
  std::uint64_t words_refused() const { return refused_; }
  std::uint64_t link_errors() const { return link_errors_; }
  std::uint64_t truncated_frames() const { return truncated_frames_; }
  std::uint64_t retransmissions() const { return retransmissions_; }

  // --- fault injection --------------------------------------------------
  /// Attaches a fault injector; the injection site is "slink/<name>".
  /// Word-level faults (LDERR corruption, truncation, forced XOFF) fire
  /// in send()/send_fragment(); stream-level LDERR bursts fire in
  /// post_stream() and cost a full retransmission on the timeline.
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
    fault_site_ = "slink/" + name_;
  }
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// Time to clock `words` across the link (one word per link clock).
  util::Picoseconds transfer_time(std::uint64_t words) const {
    return static_cast<util::Picoseconds>(words) *
           util::period_from_mhz(clock_mhz_);
  }

  /// Peak bandwidth in MB/s (32-bit words at the link clock).
  double peak_mbps() const { return clock_mhz_ * 4.0; }

  /// Test mode: loops a known pattern through the link and checks it
  /// (the S-Link "link test" feature). Returns true if the pattern
  /// survives.
  bool self_test(int words = 256);

  // --- timeline binding ------------------------------------------------
  /// Registers this link as its own timeline resource (a point-to-point
  /// link is never shared, but streams still occupy it and show up as a
  /// trace track).
  void bind(sim::Timeline& timeline) {
    timeline_ = &timeline;
    resource_ = timeline.add_resource("slink/" + name_);
  }
  bool bound() const { return timeline_ != nullptr; }
  sim::ResourceId resource() const { return resource_; }

  /// Posts a `words`-long stream (one word per link clock) onto the
  /// bound timeline no earlier than `not_before`.
  const sim::Transaction& post_stream(sim::TrackId track,
                                      std::uint64_t words,
                                      util::Picoseconds not_before,
                                      std::string label = {});

  /// Control-word markers.
  static constexpr std::uint32_t kBeginFragment = 0xB0F00000;
  static constexpr std::uint32_t kEndFragment = 0xE0F00000;

 private:
  template <typename Self, typename Stream>
  static void walk(Self& self, Stream& s) {
    const auto each_word = [&s](auto& word) {
      s.u32(word.payload);
      s.boolean(word.control);
      s.boolean(word.lderr);
    };
    // The live words start at head_; the reader refills from index 0.
    if constexpr (Stream::kLoading) {
      self.head_ = 0;
      s.seq64(self.fifo_, each_word);
    } else {
      s.seq64(std::span(self.fifo_).subspan(self.head_), each_word);
    }
    s.u64(self.sent_);
    s.u64(self.refused_);
    s.u64(self.link_errors_);
    s.u64(self.truncated_frames_);
    s.u64(self.retransmissions_);
    s.u64(self.forced_xoff_);
  }

  std::string name_;
  std::size_t fifo_depth_;
  double clock_mhz_;
  std::vector<SlinkWord> fifo_;  // simple FIFO; front at index head_
  std::size_t head_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t refused_ = 0;
  std::uint64_t link_errors_ = 0;
  std::uint64_t truncated_frames_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t forced_xoff_ = 0;  // words left in an injected XOFF burst
  sim::Timeline* timeline_ = nullptr;
  sim::ResourceId resource_;
  sim::FaultInjector* injector_ = nullptr;
  std::string fault_site_;
};

}  // namespace atlantis::hw
