#include "sim/snapshot.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ATLANTIS_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define ATLANTIS_CRC32_CLMUL 0
#endif

namespace atlantis::sim {
namespace {

constexpr std::size_t kHeaderBytes = 12;  // magic, major, minor, reserved

// Slice-by-16 CRC-32 tables for the reflected IEEE polynomial
// 0xEDB88320. kCrc[0] is the classic byte-at-a-time table; kCrc[k][b] is
// kCrc[0][b] carried through k more zero bytes, so one step folds
// sixteen input bytes with sixteen independent lookups. (Sixteen slices
// measured ~1.45x faster than eight; the tables are 16 KiB.)
constexpr std::array<std::array<std::uint32_t, 256>, 16> kCrc = [] {
  std::array<std::array<std::uint32_t, 256>, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}();

template <typename T>
T load(const std::uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Advances the running (pre-inverted) CRC `c` over `len` bytes.
std::uint32_t crc32_sliced(std::uint32_t c, const std::uint8_t* data,
                           std::size_t len) {
  for (; len >= 16; data += 16, len -= 16) {
    const std::uint32_t a = load<std::uint32_t>(data) ^ c;
    const std::uint32_t b = load<std::uint32_t>(data + 4);
    const std::uint32_t d = load<std::uint32_t>(data + 8);
    const std::uint32_t e = load<std::uint32_t>(data + 12);
    c = kCrc[15][a & 0xFFu] ^ kCrc[14][(a >> 8) & 0xFFu] ^
        kCrc[13][(a >> 16) & 0xFFu] ^ kCrc[12][a >> 24] ^
        kCrc[11][b & 0xFFu] ^ kCrc[10][(b >> 8) & 0xFFu] ^
        kCrc[9][(b >> 16) & 0xFFu] ^ kCrc[8][b >> 24] ^
        kCrc[7][d & 0xFFu] ^ kCrc[6][(d >> 8) & 0xFFu] ^
        kCrc[5][(d >> 16) & 0xFFu] ^ kCrc[4][d >> 24] ^
        kCrc[3][e & 0xFFu] ^ kCrc[2][(e >> 8) & 0xFFu] ^
        kCrc[1][(e >> 16) & 0xFFu] ^ kCrc[0][e >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = kCrc[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if ATLANTIS_CRC32_CLMUL
// One fold step: the 128-bit remainder `x` carried 128 bits ahead (its
// low half times k's low constant, its high half times k's high one)
// and added to the next 16 bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i clmul_fold(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the running CRC `c` over `len` bytes, a multiple of 16 and at
// least 64, with carry-less multiplies: the folding of Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), in the bit-reflected form zlib and
// Chromium use. Four 128-bit lanes each fold 64 bytes ahead per step
// (k1, k2); the lanes then fold into one (k3, k4), which folds each
// remaining 16-byte block. The 128-bit remainder is reduced to 64 bits
// (k4, k5) and Barrett-reduced to 32 (P', mu). Every constant is
// x^n mod P for the reflected polynomial, bit-reflected and shifted.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul(
    std::uint32_t c, const std::uint8_t* data, std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load128(data),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(data + 16);
  __m128i x3 = load128(data + 32);
  __m128i x4 = load128(data + 48);
  data += 64;
  len -= 64;
  for (; len >= 64; data += 64, len -= 64) {
    x1 = clmul_fold(x1, k1k2, load128(data));
    x2 = clmul_fold(x2, k1k2, load128(data + 16));
    x3 = clmul_fold(x3, k1k2, load128(data + 32));
    x4 = clmul_fold(x4, k1k2, load128(data + 48));
  }
  x1 = clmul_fold(x1, k3k4, x2);
  x1 = clmul_fold(x1, k3k4, x3);
  x1 = clmul_fold(x1, k3k4, x4);
  for (; len >= 16; data += 16, len -= 16) {
    x1 = clmul_fold(x1, k3k4, load128(data));
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett: 64 -> 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool cpu_has_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

bool crc32_uses_clmul() {
#if ATLANTIS_CRC32_CLMUL
  static const bool has = cpu_has_clmul();
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len) {
  return crc32_sliced(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
#if ATLANTIS_CRC32_CLMUL
  if (len >= 64 && crc32_uses_clmul()) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = crc32_clmul(c, data, bulk);
    data += bulk;
    len -= bulk;
  }
#endif
  return crc32_sliced(c, data, len) ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter() : SnapshotWriter(false) {}

SnapshotWriter::SnapshotWriter(bool sizing) : sizing_(sizing) {
  put_header();
}

SnapshotWriter SnapshotWriter::sizing() { return SnapshotWriter(true); }

void SnapshotWriter::put_header() {
  const std::uint32_t reserved = 0;
  append(&kSnapshotMagic, sizeof(kSnapshotMagic));
  append(&kSnapshotMajor, sizeof(kSnapshotMajor));
  append(&kSnapshotMinor, sizeof(kSnapshotMinor));
  append(&reserved, sizeof(reserved));
}

void SnapshotWriter::reserve(std::size_t bytes) {
  if (bytes == 0) return;
  reserved_ = true;
  buf_.reserve(bytes);
}

void SnapshotWriter::presize(const Snapshottable& root) {
  if (sizing_ || reserved_ || used_ != kHeaderBytes) return;
  SnapshotWriter sizer = sizing();
  root.save_state(sizer);
  reserve(sizer.size());
}

void SnapshotWriter::grow(std::size_t n) {
  // append writes into the vector's elements, so room is added with
  // resize, which zero-fills it. Steps of at most kMaxStep keep the
  // unused capacity untouched (not resident); reallocation stays
  // geometric through reserve. A step never overshoots a reservation
  // that still holds `n` more bytes, so a save of the reserved size
  // never reallocates.
  constexpr std::size_t kMaxStep = 64 * 1024;
  const std::size_t step = std::clamp(buf_.size(), std::size_t{256}, kMaxStep);
  std::size_t want = used_ + std::max(n, step);
  if (want > buf_.capacity()) {
    if (used_ + n <= buf_.capacity()) {
      want = buf_.capacity();
    } else {
      buf_.reserve(std::max(want, 2 * buf_.capacity()));
    }
  }
  buf_.resize(want);
}

void SnapshotWriter::patch_u64(std::size_t at, std::uint64_t v) {
  std::memcpy(buf_.data() + at, &v, sizeof(v));
}

void SnapshotWriter::begin_section(const std::string& tag) {
  ATLANTIS_CHECK(!open_, "snapshot sections do not nest");
  ATLANTIS_CHECK(!tag.empty(), "snapshot section tag must be non-empty");
  open_ = true;
  frame_.frame_at = used_;
  const auto tag_len = static_cast<std::uint32_t>(tag.size());
  append(&tag_len, sizeof(tag_len));
  append(tag.data(), tag.size());
  frame_.len_at = used_;
  const std::uint64_t payload_len = 0;  // backpatched by end_section()
  append(&payload_len, sizeof(payload_len));
  frame_.payload_at = used_;
}

void SnapshotWriter::end_section() {
  ATLANTIS_CHECK(open_, "end_section without begin_section");
  open_ = false;
  std::uint32_t crc = 0;
  if (!sizing_) {
    patch_u64(frame_.len_at, used_ - frame_.payload_at);
    // The CRC covers the whole frame (tag length, tag, payload length,
    // payload), so tag corruption is as detectable as payload corruption.
    crc = crc32(buf_.data() + frame_.frame_at, used_ - frame_.frame_at);
  }
  append(&crc, sizeof(crc));
}

SnapshotWriter::Nest SnapshotWriter::begin_nested() {
  ATLANTIS_CHECK(open_, "nested snapshot stream outside a section");
  const Nest nest{frame_, used_};
  put_u64(0);  // backpatched by end_nested()
  open_ = false;
  put_header();
  return nest;
}

void SnapshotWriter::end_nested(const Nest& nest) {
  ATLANTIS_CHECK(!open_, "nested snapshot stream left a section open");
  if (!sizing_) {
    patch_u64(nest.count_at, used_ - nest.count_at - sizeof(std::uint64_t));
  }
  frame_ = nest.outer;
  open_ = true;
}

const std::vector<std::uint8_t>& SnapshotWriter::bytes() {
  ATLANTIS_CHECK(!sizing_, "a sizing snapshot writer holds no bytes");
  ATLANTIS_CHECK(!open_, "snapshot stream read with a section still open");
  buf_.resize(used_);  // shrinking keeps the allocation
  return buf_;
}

std::vector<std::uint8_t> SnapshotWriter::take() && {
  bytes();
  used_ = 0;
  return std::move(buf_);
}

util::Result<SnapshotReader> SnapshotReader::open(
    std::vector<std::uint8_t> data) {
  using R = util::Result<SnapshotReader>;
  SnapshotReader r;
  r.data_ = std::move(data);
  const std::uint8_t* p = r.data_.data();
  const std::size_t n = r.data_.size();
  if (n < kHeaderBytes) {
    return R::failure(util::ErrorCode::kSnapshotCorrupt,
                      "snapshot shorter than its header");
  }
  if (load<std::uint32_t>(p) != kSnapshotMagic) {
    return R::failure(util::ErrorCode::kSnapshotCorrupt,
                      "bad snapshot magic");
  }
  r.major_ = load<std::uint16_t>(p + 4);
  r.minor_ = load<std::uint16_t>(p + 6);
  if (r.major_ != kSnapshotMajor) {
    return R::failure(util::ErrorCode::kSnapshotVersion,
                      "snapshot major version " + std::to_string(r.major_) +
                          " (this build reads " +
                          std::to_string(kSnapshotMajor) + ")");
  }
  std::size_t at = kHeaderBytes;
  while (at < n) {
    const std::size_t frame_at = at;
    if (n - at < 4) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section tag length");
    }
    const std::size_t tag_len = load<std::uint32_t>(p + at);
    at += 4;
    if (n - at < tag_len) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section tag");
    }
    std::string tag(reinterpret_cast<const char*>(p + at), tag_len);
    at += tag_len;
    if (n - at < 8) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section length");
    }
    const std::size_t payload_len = load<std::uint64_t>(p + at);
    at += 8;
    if (n - at < payload_len || n - at - payload_len < 4) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section '" + tag + "'");
    }
    const std::uint32_t want = load<std::uint32_t>(p + at + payload_len);
    if (crc32(p + frame_at, at - frame_at + payload_len) != want) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "CRC mismatch in section '" + tag + "'");
    }
    r.index_.try_emplace(tag, r.sections_.size());
    r.sections_.push_back(Section{std::move(tag), at, payload_len});
    at += payload_len + 4;
  }
  return R(std::move(r));
}

bool SnapshotReader::has_section(const std::string& tag) const {
  return index_.count(tag) != 0;
}

std::vector<std::string> SnapshotReader::section_tags() const {
  std::vector<std::string> tags;
  tags.reserve(sections_.size());
  for (const Section& s : sections_) tags.push_back(s.tag);
  return tags;
}

void SnapshotReader::select(const std::string& tag) {
  if (!try_select(tag)) {
    throw util::StateError("snapshot has no section '" + tag + "'");
  }
}

bool SnapshotReader::try_select(const std::string& tag) {
  const auto it = index_.find(tag);
  if (it == index_.end()) return false;
  select_index(it->second);
  return true;
}

void SnapshotReader::select_index(std::size_t i) {
  ATLANTIS_CHECK(i < sections_.size(), "snapshot section index out of range");
  cursor_ = sections_[i].begin;
  end_ = cursor_ + sections_[i].len;
}

void SnapshotReader::throw_overread() {
  throw util::Error("snapshot section overread");
}

void SnapshotReader::mismatch(const char* what, const std::string& got,
                              const std::string& live) {
  throw util::StateError(std::string("snapshot ") + what +
                         " mismatch: the stream holds " + got +
                         ", this twin " + live);
}

void SnapshotReader::expect_string(const std::string& s, const char* what) {
  const std::string_view got = get_string_view();
  if (got != s) mismatch(what, "'" + std::string(got) + "'", "'" + s + "'");
}

std::string SnapshotReader::get_string() {
  return std::string(get_string_view());
}

std::string_view SnapshotReader::get_string_view() {
  const std::uint32_t len = get_u32();
  need(len);
  const char* const at = reinterpret_cast<const char*>(data_.data()) + cursor_;
  cursor_ += len;
  return {at, len};
}

std::vector<std::uint64_t> SnapshotReader::get_words() {
  const std::uint64_t count = get_u64();
  if (count > remaining() / sizeof(std::uint64_t)) throw_overread();
  std::vector<std::uint64_t> words(count);
  get_bytes(reinterpret_cast<std::uint8_t*>(words.data()),
            words.size() * sizeof(std::uint64_t));
  return words;
}

void SnapshotReader::words(std::span<std::uint64_t> w) {
  expect(get_u64(), std::uint64_t{w.size()}, "word count");
  get_bytes(reinterpret_cast<std::uint8_t*>(w.data()),
            w.size() * sizeof(std::uint64_t));
}

void SnapshotReader::get_bytes(std::uint8_t* out, std::size_t len) {
  need(len);
  if (len == 0) return;  // `out` may be null then
  std::memcpy(out, data_.data() + cursor_, len);
  cursor_ += len;
}

}  // namespace atlantis::sim
