// Versioned, tagged binary snapshot stream — the uniform save/restore
// layer for every stateful component in the crate.
//
// The ROADMAP's preemptive-scheduling and live-migration items both
// reduce to one primitive: serialize the complete state of a component
// tree to bytes, and later restore those bytes into an identically
// constructed tree, bit-identically. The model is QEMU's savevm: a
// stream of flat, *tagged sections*, each independently framed with a
// length and a CRC, so a reader can (a) verify integrity eagerly, (b)
// skip sections whose tag it does not know (forward compatibility on
// minor version bumps), and (c) reject streams whose major version it
// cannot interpret at all.
//
// Stream layout (all integers little-endian):
//
//   header:   u32 magic "ATLS" | u16 major | u16 minor | u32 reserved
//   section:  u32 tag_len | tag bytes | u64 payload_len | payload
//             | u32 crc32(tag_len..payload)
//   ...repeated; no nesting, no trailer. The CRC covers the whole
//   frame — tag length, tag, payload length and payload — so a flipped
//   bit anywhere after the header is detected, not just in the payload.
//   A payload may carry a nested stream as opaque bytes (u64 length,
//   then a complete header + sections), which the writer builds in place.
//
// Section contract: *composite* components (Timeline, FaultInjector,
// AtlantisSystem, JobService) open their own tagged sections — their
// save_state must be called with no section open. *Leaf* components
// (chdl::Simulator, the hw devices, TaskSwitcher, AtlantisDriver) write
// primitives into whatever section the caller has open, so an
// orchestrator owns the tag namespace and a leaf can be embedded
// anywhere. Readers consume a section with the exact same sequence of
// typed reads; an overread within a section throws util::Error (that is
// a programming error, not a recoverable stream condition).
//
// Field walks: each layout is stated once, in a private template that
// save_state runs with a SnapshotWriter (appending each field) and
// load_state with a SnapshotReader (assigning it):
//
//   template <typename Self, typename Stream>
//   static void walk(Self& self, Stream& s) {
//     s.u64(self.total_bytes_);
//     s.seq32(self.pending_, [&](auto& t) { s.i64(t); });
//   }
//
// The verbs are named by stream encoding: u8/u16/u32/u64/i64 (integral
// or enum fields), f64, boolean, string, words; seq32/seq64 (a u32/u64
// count, then each element; the reader rebuilds the container);
// expect_* (a value the twin's construction fixes: the reader compares
// and throws util::StateError); section (a tagged section); state (a
// nested component). Stream::kLoading guards the few steps only one
// direction has. FpgaDevice and chdl::Simulator validate a whole load
// before committing any of it, so they keep separate save and load code.
//
// Versioning rules: bump kSnapshotMinor when adding sections or
// appending fields readers may skip; bump kSnapshotMajor when the
// meaning of existing bytes changes. open() fails with
// ErrorCode::kSnapshotVersion on a foreign major and with
// ErrorCode::kSnapshotCorrupt on truncation or a CRC mismatch.
//
// Speed: a typed put or get is one inline check plus one memcpy of the
// host representation. That is the stream encoding because the host is
// little-endian (asserted below). A stream root sizes its save first
// (SnapshotWriter::presize) and then writes into one exact buffer. The
// CRC folds the bulk of a frame with carry-less multiplies where the CPU
// has them and through slice-by-16 tables elsewhere; the
// byte-at-a-time loop only finishes the tail.
#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace atlantis::sim {

static_assert(std::endian::native == std::endian::little,
              "snapshot puts and gets copy host integers as the "
              "little-endian stream encoding");

inline constexpr std::uint32_t kSnapshotMagic = 0x534C5441u;  // "ATLS"
// Major 7: a job fact is stored once. "serve/service" drops each
// ledger record's id (its index) and queue wait (start minus arrival),
// each outcome's ok flag, value and detail text (a failed job's reason
// is its error code), each progress entry's outcome-ready flag (an
// entry always has its outcome), each queued job's configuration name
// (its ledger entry names it) and the per-tenant backlog counts; a
// "serve/job" checkpoint drops the same outcome fields; and a board's
// S-Link channel drops its sent and refused word counts.
inline constexpr std::uint16_t kSnapshotMajor = 7;
inline constexpr std::uint16_t kSnapshotMinor = 0;

/// CRC-32 (IEEE 802.3 polynomial, reflected), the framing checksum.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);
/// The same CRC through slice-by-16 tables alone: what crc32 runs on a
/// CPU without PCLMULQDQ and SSE4.1, and the reference it is tested
/// against.
std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len);
/// True when crc32 folds its bulk with PCLMULQDQ on this CPU.
bool crc32_uses_clmul();

/// A field the integer verbs accept; it is cast to and from the encoding.
template <typename T>
concept Integer = std::integral<T> || std::is_enum_v<T>;

class Snapshottable;

/// Appends a header + tagged sections to a growable byte buffer.
/// Typed puts are only legal between begin_section()/end_section().
class SnapshotWriter {
 public:
  SnapshotWriter();
  /// A writer that only counts: the same walks run without copying a
  /// byte, computing a CRC or backpatching a length, and size() is the
  /// stream a writing pass produces. bytes() and take() refuse it.
  static SnapshotWriter sizing();

  /// Pre-sizes the buffer for a stream of up to `bytes` bytes, so a save
  /// of at most that size never reallocates. The stream itself is
  /// unaffected. A writer reserved for a nonzero size is not presized:
  /// its owner sized it.
  void reserve(std::size_t bytes);

  /// Stream roots call this before writing anything. On a fresh writer
  /// nobody reserved, it runs `root.save_state` once in sizing mode and
  /// reserves exactly the counted stream, so the save that follows
  /// touches each byte once. Any other writer (reserved, already
  /// written to, such as a nested stream's enclosing one, or itself
  /// sizing) is left alone.
  void presize(const Snapshottable& root);

  void begin_section(const std::string& tag);
  void end_section();

  /// Writes a nested stream into the open section: a u64 byte count,
  /// then a complete stream (header and sections) that `body` writes
  /// through this writer, byte for byte what a separate writer would
  /// have produced.
  template <typename Body>
  void nested(Body&& body) {
    const Nest nest = begin_nested();
    body();
    end_nested(nest);
  }

  void put_u8(std::uint8_t v) { put(v); }
  void put_u16(std::uint16_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_f64(double v) { put(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(std::string_view s) {
    put(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  /// u64 count followed by the words.
  void put_words(std::span<const std::uint64_t> words) {
    put(static_cast<std::uint64_t>(words.size()));
    append(words.data(), words.size() * sizeof(std::uint64_t));
  }

  // --- field verbs, spelled the same on SnapshotReader ("Field walks")
  static constexpr bool kLoading = false;
  template <Integer T> void u8(T v) { put(static_cast<std::uint8_t>(v)); }
  template <Integer T> void u16(T v) { put(static_cast<std::uint16_t>(v)); }
  template <Integer T> void u32(T v) { put(static_cast<std::uint32_t>(v)); }
  template <Integer T> void u64(T v) { put(static_cast<std::uint64_t>(v)); }
  template <Integer T> void i64(T v) { put(static_cast<std::int64_t>(v)); }
  void f64(double v) { put(v); }
  void boolean(bool v) { put_bool(v); }
  void string(std::string_view s) { put_string(s); }
  void words(std::span<const std::uint64_t> w) { put_words(w); }
  template <typename Seq, typename Each>
  void seq32(const Seq& items, Each&& each) {
    u32(items.size());
    for (const auto& item : items) each(item);
  }
  template <typename Seq, typename Each>
  void seq64(const Seq& items, Each&& each) {
    u64(items.size());
    for (const auto& item : items) each(item);
  }
  template <Integer T> void expect_u8(T v, const char*) { u8(v); }
  template <Integer T> void expect_u32(T v, const char*) { u32(v); }
  template <Integer T> void expect_u64(T v, const char*) { u64(v); }
  void expect_string(std::string_view s, const char*) { put_string(s); }
  template <typename Body>
  void section(const std::string& tag, Body&& body) {
    begin_section(tag);
    body();
    end_section();
  }
  template <typename C> void state(const C& c) { c.save_state(*this); }

  /// The finished stream; requires no section be open.
  const std::vector<std::uint8_t>& bytes();
  /// Moves the finished stream out; the writer is spent afterwards.
  std::vector<std::uint8_t> take() &&;
  /// Bytes written so far, or counted so far by a sizing writer.
  std::size_t size() const { return used_; }

 private:
  // Offsets into the stream of the open section's frame start, length
  // field and payload.
  struct Frame {
    std::size_t frame_at = 0;
    std::size_t len_at = 0;
    std::size_t payload_at = 0;
  };
  // A nested stream's enclosing section and the offset of its count.
  struct Nest {
    Frame outer;
    std::size_t count_at = 0;
  };

  explicit SnapshotWriter(bool sizing);
  template <typename T>
  void put(T v) {
    ATLANTIS_CHECK(open_, "snapshot put outside a section");
    append(&v, sizeof(v));
  }
  void append(const void* p, std::size_t n) {
    if (sizing_) {
      used_ += n;
      return;
    }
    if (n == 0) return;
    if (buf_.size() - used_ < n) grow(n);
    std::memcpy(buf_.data() + used_, p, n);
    used_ += n;
  }
  void grow(std::size_t n);
  void put_header();
  void patch_u64(std::size_t at, std::uint64_t v);
  Nest begin_nested();
  void end_nested(const Nest& nest);

  // The stream is buf_[0, used_); the rest of buf_ is room to append
  // into, trimmed off when the stream is handed out. A sizing writer
  // keeps buf_ empty and only advances used_.
  std::vector<std::uint8_t> buf_;
  std::size_t used_ = 0;
  Frame frame_;  // the open section's
  bool open_ = false;
  bool sizing_ = false;
  bool reserved_ = false;
};

/// Parses and validates a stream eagerly at open(): header, every
/// section frame and every CRC are checked up front, so load_state
/// implementations never see a torn stream. Duplicate tags keep their
/// stream order; select() addresses the first occurrence and
/// select_index() any of them. Typed gets and the field verbs throw
/// util::Error on an overread within the selected section.
class SnapshotReader {
 public:
  /// Validates the stream. Fails with kSnapshotVersion on an unknown
  /// major version, kSnapshotCorrupt on bad magic, truncation or CRC
  /// mismatch. Unknown sections are retained and simply never selected
  /// (minor-version forward compatibility).
  static util::Result<SnapshotReader> open(std::vector<std::uint8_t> data);

  std::uint16_t version_major() const { return major_; }
  std::uint16_t version_minor() const { return minor_; }

  bool has_section(const std::string& tag) const;
  /// Section tags in stream order.
  std::vector<std::string> section_tags() const;
  /// Selects the first section with `tag` for reading; throws
  /// util::StateError when absent.
  void select(const std::string& tag);
  bool try_select(const std::string& tag);
  /// Selects section `i` in stream order.
  void select_index(std::size_t i);

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint16_t get_u16() { return get<std::uint16_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  double get_f64() { return get<double>(); }
  bool get_bool() { return get_u8() != 0; }
  std::string get_string();
  /// The next string as a view into the stream: valid while this reader
  /// lives, and no copy is made.
  std::string_view get_string_view();
  std::vector<std::uint64_t> get_words();
  void get_bytes(std::uint8_t* out, std::size_t len);

  /// Bytes left in the selected section.
  std::size_t remaining() const { return end_ - cursor_; }

  // --- field verbs, spelled the same on SnapshotWriter ("Field walks")
  static constexpr bool kLoading = true;
  template <Integer T> void u8(T& v) { v = static_cast<T>(get_u8()); }
  template <Integer T> void u16(T& v) { v = static_cast<T>(get_u16()); }
  template <Integer T> void u32(T& v) { v = static_cast<T>(get_u32()); }
  template <Integer T> void u64(T& v) { v = static_cast<T>(get_u64()); }
  template <Integer T> void i64(T& v) { v = static_cast<T>(get_i64()); }
  void f64(double& v) { v = get_f64(); }
  void boolean(bool& v) { v = get_bool(); }
  // Exact-size buffers, as get_string/get_words allocate them: assigning
  // into a fresh string would round its capacity up.
  void string(std::string& s) { s = get_string(); }
  void words(std::vector<std::uint64_t>& w) { w = get_words(); }
  void words(std::span<std::uint64_t> w);  // must match the stream's length
  template <typename Seq, typename Each>
  void seq32(Seq& items, Each&& each) { seq(get_u32(), items, each); }
  template <typename Seq, typename Each>
  void seq64(Seq& items, Each&& each) { seq(get_u64(), items, each); }
  template <Integer T> void expect_u8(T v, const char* what) {
    expect(get_u8(), static_cast<std::uint8_t>(v), what);
  }
  template <Integer T> void expect_u32(T v, const char* what) {
    expect(get_u32(), static_cast<std::uint32_t>(v), what);
  }
  template <Integer T> void expect_u64(T v, const char* what) {
    expect(get_u64(), static_cast<std::uint64_t>(v), what);
  }
  void expect_string(const std::string& s, const char* what);
  template <typename Body>
  void section(const std::string& tag, Body&& body) {
    select(tag);
    body();
  }
  template <typename C> void state(C& c) { c.load_state(*this); }

 private:
  // A sequence's stored elements are rebuilt in place; an associative
  // container's (saved in key order) are read into a mutable key or
  // key/value pair and appended.
  template <typename Seq>
  struct Element {
    using type = typename Seq::key_type;
  };
  template <typename Seq>
    requires requires { typename Seq::mapped_type; }
  struct Element<Seq> {
    using type = std::pair<typename Seq::key_type, typename Seq::mapped_type>;
  };
  template <typename Seq, typename Each>
  void seq(std::uint64_t n, Seq& items, Each& each) {
    if (n > remaining()) throw_overread();  // elements take >= 1 byte
    items.clear();
    if constexpr (requires { typename Seq::key_type; }) {
      for (std::uint64_t i = 0; i < n; ++i) {
        typename Element<Seq>::type item{};
        each(item);
        items.emplace_hint(items.end(), std::move(item));
      }
    } else {
      items.resize(n);
      for (auto& item : items) each(item);
    }
  }
  template <typename V>
  void expect(V got, V live, const char* what) {
    if (got != live) mismatch(what, std::to_string(got), std::to_string(live));
  }
  [[noreturn]] static void mismatch(const char* what, const std::string& got,
                                    const std::string& live);

  struct Section {
    std::string tag;
    std::size_t begin = 0;  // payload offset into data_
    std::size_t len = 0;
  };

  SnapshotReader() = default;
  template <typename T>
  T get() {
    need(sizeof(T));
    T v{};
    std::memcpy(&v, data_.data() + cursor_, sizeof(v));
    cursor_ += sizeof(v);
    return v;
  }
  void need(std::size_t n) const {
    if (end_ - cursor_ < n) throw_overread();
  }
  [[noreturn]] static void throw_overread();

  std::vector<std::uint8_t> data_;
  std::vector<Section> sections_;
  std::map<std::string, std::size_t> index_;  // tag -> first section
  std::size_t cursor_ = 0;
  std::size_t end_ = 0;
  std::uint16_t major_ = 0;
  std::uint16_t minor_ = 0;

  friend class util::Result<SnapshotReader>;
};

/// The uniform save/load interface. save_state serializes the
/// component's complete replayable state; load_state restores it into an
/// identically constructed component (same design, same topology, same
/// registrations) and throws util::StateError / util::Error when the
/// stream does not match that construction. See the section contract
/// above for who opens sections.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void save_state(SnapshotWriter& w) const = 0;
  virtual void load_state(SnapshotReader& r) = 0;
};

}  // namespace atlantis::sim
