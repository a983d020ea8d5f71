#include "sim/fault.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace atlantis::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDmaStall: return "dma_stall";
    case FaultKind::kDmaAbort: return "dma_abort";
    case FaultKind::kSlinkError: return "slink_error";
    case FaultKind::kSlinkTruncation: return "slink_truncation";
    case FaultKind::kSlinkXoff: return "slink_xoff";
    case FaultKind::kSeuConfig: return "seu_config";
    case FaultKind::kSeuMemory: return "seu_memory";
    case FaultKind::kConfigCrc: return "config_crc";
    case FaultKind::kBoardDropout: return "board_dropout";
    case FaultKind::kServiceCrash: return "service_crash";
  }
  return "unknown";
}

FaultPlan& FaultPlan::with_rate(FaultKind kind, double probability) {
  ATLANTIS_CHECK(probability >= 0.0 && probability <= 1.0,
                 "fault rate must be a probability");
  rates[static_cast<std::size_t>(kind)] = probability;
  return *this;
}

FaultPlan& FaultPlan::inject(FaultKind kind, std::string site,
                             std::uint64_t nth, std::uint64_t param) {
  ATLANTIS_CHECK(nth >= 1, "scheduled faults fire on a 1-based opportunity");
  scheduled.push_back(ScheduledFault{kind, std::move(site), nth, param});
  return *this;
}

bool FaultPlan::empty() const {
  if (!scheduled.empty()) return false;
  return std::all_of(rates.begin(), rates.end(),
                     [](double r) { return r == 0.0; });
}

util::Picoseconds RetryPolicy::backoff(int retry) const {
  ATLANTIS_CHECK(retry >= 1, "backoff is indexed from the first retry");
  util::Picoseconds wait = initial_backoff;
  for (int i = 1; i < retry; ++i) {
    const auto next = static_cast<util::Picoseconds>(
        static_cast<double>(wait) * multiplier);
    if (next >= max_backoff || next <= wait) return max_backoff;
    wait = next;
  }
  return std::min(wait, max_backoff);
}

namespace {

/// splitmix64 finalizer: a full-avalanche mix, so consecutive ordinals
/// at one site land on unrelated jitter factors.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

util::Picoseconds RetryPolicy::backoff(int retry,
                                       std::uint64_t stream) const {
  const util::Picoseconds base = backoff(retry);
  if (jitter <= 0.0) return base;
  ATLANTIS_CHECK(jitter < 1.0, "backoff jitter must stay below 1");
  // Map the stream word to u in [0, 1) and scale into [1 - jitter, 1].
  const double u =
      static_cast<double>(mix64(stream) >> 11) * 0x1.0p-53;
  const double scale = 1.0 - jitter * u;
  const auto wait =
      static_cast<util::Picoseconds>(static_cast<double>(base) * scale);
  return std::max<util::Picoseconds>(1, wait);
}

std::uint64_t jitter_stream(std::uint64_t seed, const std::string& site,
                            std::uint64_t ordinal) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return mix64(h ^ mix64(seed) ^ (ordinal * 0x9E3779B97F4A7C15ull));
}

namespace {

/// FNV-1a over the site name; mixed with the seed and kind so every
/// (kind, site) stream is independent of every other.
std::uint64_t site_hash(std::uint64_t seed, int kind,
                        const std::string& site) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(kind + 1);
  return h;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

FaultInjector::SiteState& FaultInjector::site_state(FaultKind kind,
                                                    const std::string& site) {
  const SiteKey key{static_cast<int>(kind), site};
  auto it = sites_.find(key);
  if (it == sites_.end()) {
    SiteState st;
    st.rng.reseed(site_hash(plan_.seed, static_cast<int>(kind), site));
    it = sites_.emplace(key, std::move(st)).first;
  }
  return it->second;
}

std::optional<FaultHit> FaultInjector::draw(FaultKind kind,
                                            const std::string& site) {
  SiteState& st = site_state(kind, site);
  ++st.opportunities;
  // Rate draw first (and always, so the stream position is a pure
  // function of the opportunity count), then the scheduled list.
  const double rate = plan_.rate(kind);
  bool fire = rate > 0.0 && st.rng.bernoulli(rate);
  std::uint64_t param = 0;
  if (fire) param = st.rng.next_u64();
  for (const ScheduledFault& sf : plan_.scheduled) {
    if (sf.kind == kind && sf.nth == st.opportunities && sf.site == site) {
      fire = true;
      if (sf.param != 0) param = sf.param;
      if (param == 0) param = st.rng.next_u64();
      break;
    }
  }
  if (!fire) return std::nullopt;
  ++injected_[static_cast<std::size_t>(kind)];
  log_.push_back(FaultRecord{kind, site, st.opportunities, param});
  return FaultHit{param};
}

std::uint64_t FaultInjector::opportunities(FaultKind kind,
                                           const std::string& site) const {
  const auto it = sites_.find(SiteKey{static_cast<int>(kind), site});
  return it == sites_.end() ? 0 : it->second.opportunities;
}

std::uint64_t FaultInjector::injected(FaultKind kind) const {
  return injected_[static_cast<std::size_t>(kind)];
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected_) total += n;
  return total;
}

template <typename Self, typename Stream>
void FaultInjector::walk(Self& self, Stream& s) {
  s.section("sim/fault", [&] {
    s.u64(self.plan_.seed);
    for (auto& rate : self.plan_.rates) s.f64(rate);
    s.seq32(self.plan_.scheduled, [&](auto& sf) {
      s.u8(sf.kind);
      s.string(sf.site);
      s.u64(sf.nth);
      s.u64(sf.param);
    });
    for (auto& n : self.injected_) s.u64(n);
    s.seq64(self.log_, [&](auto& rec) {
      s.u8(rec.kind);
      s.string(rec.site);
      s.u64(rec.opportunity);
      s.u64(rec.param);
    });
    s.seq32(self.sites_, [&](auto& site) {
      auto& [key, st] = site;
      s.u32(key.first);
      s.string(key.second);
      s.u64(st.opportunities);
      // The stream position travels as the generator's six state words.
      std::array<std::uint64_t, 6> rng = st.rng.save_state();
      for (auto& word : rng) s.u64(word);
      if constexpr (Stream::kLoading) st.rng.load_state(rng);
    });
  });
}

void FaultInjector::save_state(SnapshotWriter& w) const { walk(*this, w); }

void FaultInjector::load_state(SnapshotReader& r) { walk(*this, r); }

}  // namespace atlantis::sim
