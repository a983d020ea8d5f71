// The snapshot stream itself: framing, versioning, corruption rejection —
// and the Timeline / FaultInjector round trips built on it.
#include "sim/snapshot.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chdl/builder.hpp"
#include "chdl/sim.hpp"
#include "core/acb.hpp"
#include "core/memmodule.hpp"
#include "core/system.hpp"
#include "hw/fpga.hpp"
#include "serve/cluster.hpp"
#include "serve/jobservice.hpp"
#include "sim/fault.hpp"
#include "sim/timeline.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace atlantis::sim {
namespace {

void write_one_section(SnapshotWriter& w) {
  w.begin_section("test/section");
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_bool(true);
  w.put_string("hello snapshot");
  w.put_words(std::vector<std::uint64_t>{1, 2, 3, 0xFFFFFFFFFFFFFFFFull});
  w.end_section();
}

std::vector<std::uint8_t> one_section_stream() {
  SnapshotWriter w;
  write_one_section(w);
  return w.bytes();
}

// The stream size a sizing pass over `save` counts.
template <typename Save>
std::size_t sized(Save&& save) {
  SnapshotWriter s = SnapshotWriter::sizing();
  save(s);
  return s.size();
}

TEST(SnapshotStream, PrimitivesRoundTrip) {
  auto r = SnapshotReader::open(one_section_stream());
  ASSERT_TRUE(r.ok()) << r.message();
  SnapshotReader reader = std::move(r.value());
  EXPECT_EQ(reader.version_major(), kSnapshotMajor);
  EXPECT_EQ(reader.version_minor(), kSnapshotMinor);
  reader.select("test/section");
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u16(), 0xBEEF);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.get_i64(), -42);
  EXPECT_DOUBLE_EQ(reader.get_f64(), 3.25);
  EXPECT_TRUE(reader.get_bool());
  EXPECT_EQ(reader.get_string(), "hello snapshot");
  const std::vector<std::uint64_t> words = reader.get_words();
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[3], 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SnapshotStream, MultipleSectionsSelectByTag) {
  SnapshotWriter w;
  w.begin_section("alpha");
  w.put_u32(1);
  w.end_section();
  w.begin_section("beta");
  w.put_u32(2);
  w.end_section();
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  SnapshotReader reader = std::move(r.value());
  EXPECT_TRUE(reader.has_section("alpha"));
  EXPECT_TRUE(reader.has_section("beta"));
  EXPECT_FALSE(reader.has_section("gamma"));
  ASSERT_EQ(reader.section_tags(),
            (std::vector<std::string>{"alpha", "beta"}));
  reader.select("beta");
  EXPECT_EQ(reader.get_u32(), 2u);
  reader.select("alpha");  // selection may go backwards
  EXPECT_EQ(reader.get_u32(), 1u);
  EXPECT_FALSE(reader.try_select("gamma"));
  EXPECT_THROW(reader.select("gamma"), util::StateError);
}

TEST(SnapshotStream, HeaderOnlyStreamIsValid) {
  SnapshotWriter w;
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().section_tags().empty());
}

TEST(SnapshotStream, RejectsForeignMajorVersion) {
  // An older stream (the previous major) is as foreign as a newer one.
  for (const int major : {kSnapshotMajor - 1, kSnapshotMajor + 1}) {
    std::vector<std::uint8_t> bytes = one_section_stream();
    // Header: u32 magic | u16 major (offset 4, little-endian) | u16 minor.
    bytes[4] = static_cast<std::uint8_t>(major & 0xFF);
    auto r = SnapshotReader::open(bytes);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), util::ErrorCode::kSnapshotVersion);
  }
}

TEST(SnapshotStream, SkipsUnknownSectionsOnMinorBump) {
  SnapshotWriter w;
  w.begin_section("known");
  w.put_u64(77);
  w.end_section();
  w.begin_section("future/added-in-minor-bump");
  w.put_string("a reader of minor 0 has never heard of this");
  w.end_section();
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes[6] = static_cast<std::uint8_t>((kSnapshotMinor + 3) & 0xFF);
  auto r = SnapshotReader::open(bytes);
  ASSERT_TRUE(r.ok()) << "minor bumps must stay readable";
  SnapshotReader reader = std::move(r.value());
  EXPECT_EQ(reader.version_minor(), kSnapshotMinor + 3);
  reader.select("known");
  EXPECT_EQ(reader.get_u64(), 77u);
  // The unknown section is retained (and CRC-checked), just never used.
  EXPECT_TRUE(reader.has_section("future/added-in-minor-bump"));
}

TEST(SnapshotStream, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = one_section_stream();
  bytes[0] ^= 0xFF;
  auto r = SnapshotReader::open(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), util::ErrorCode::kSnapshotCorrupt);
}

TEST(SnapshotStream, RejectsTruncation) {
  const std::vector<std::uint8_t> bytes = one_section_stream();
  // Any proper prefix must be rejected, wherever the cut lands.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{11}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep));
    auto r = SnapshotReader::open(cut);
    ASSERT_FALSE(r.ok()) << "accepted a " << keep << "-byte prefix";
    EXPECT_EQ(r.error(), util::ErrorCode::kSnapshotCorrupt);
  }
}

TEST(SnapshotStream, RejectsPayloadCorruption) {
  const std::vector<std::uint8_t> good = one_section_stream();
  // Flip one bit in every byte position after the header; every flip must
  // be caught (frame fields break parsing, payload bytes break the CRC,
  // CRC bytes mismatch the payload).
  for (std::size_t i = 12; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    auto r = SnapshotReader::open(bad);
    EXPECT_FALSE(r.ok()) << "accepted corruption at byte " << i;
  }
}

TEST(SnapshotStream, SectionOverreadThrows) {
  SnapshotWriter w;
  w.begin_section("small");
  w.put_u8(1);
  w.end_section();
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  SnapshotReader reader = std::move(r.value());
  reader.select("small");
  EXPECT_EQ(reader.get_u8(), 1);
  EXPECT_THROW(reader.get_u64(), util::Error);
}

TEST(SnapshotStream, WordCountOverflowIsRejected) {
  // A CRC-valid section whose word count promises more data than the
  // section holds must throw, not wrap the size computation.
  SnapshotWriter w;
  w.begin_section("lying");
  w.put_u64(0xFFFFFFFFFFFFFFFFull);  // "word count"
  w.end_section();
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  SnapshotReader reader = std::move(r.value());
  reader.select("lying");
  EXPECT_THROW(reader.get_words(), util::Error);
}

TEST(SnapshotStream, FieldVerbsRejectCountsAndShapesTheStreamLacks) {
  // A CRC-valid sequence count with nothing behind it is refused before
  // the reader touches the container, and a fixed-shape word block of
  // another length is a mismatched twin, not an overread.
  SnapshotWriter w;
  w.begin_section("seq");
  w.put_u32(1000);
  w.end_section();
  w.begin_section("words");
  w.put_words(std::vector<std::uint64_t>{1, 2, 3});
  w.end_section();
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  SnapshotReader reader = std::move(r.value());
  reader.select("seq");
  std::vector<std::uint64_t> items{42};
  EXPECT_THROW(reader.seq32(items, [&](auto& v) { reader.u64(v); }),
               util::Error);
  EXPECT_EQ(items, std::vector<std::uint64_t>{42});
  reader.select("words");
  std::vector<std::uint64_t> shaped(2, 7);
  EXPECT_THROW(reader.words(std::span(shaped)), util::StateError);
  EXPECT_EQ(shaped, (std::vector<std::uint64_t>{7, 7}));
}

// --- Stream bytes ------------------------------------------------------

// CRC-32 by its definition, one bit at a time: the reference the
// table-driven crc32 must agree with.
std::uint32_t crc32_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(SnapshotStream, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

std::vector<std::uint8_t> noise(std::size_t n) {
  std::vector<std::uint8_t> buf(n);
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (std::uint8_t& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 32);
  }
  return buf;
}

TEST(SnapshotStream, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length 0-1100 from every start offset 0-15: each alignment of
  // the sixteen-byte steps, every tail length, and bulks of one to
  // sixteen 64-byte carry-less fold blocks with every 16-byte remainder.
  const std::vector<std::uint8_t> buf = noise(16 + 1100);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
      ASSERT_EQ(crc32_portable(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "portable, offset " << offset << ", length " << len;
    }
  }
}

TEST(SnapshotStream, Crc32MatchesThePortableTablesOnAFourMebibyteBuffer) {
  const std::vector<std::uint8_t> buf = noise(4 << 20);
  EXPECT_EQ(crc32(buf.data(), buf.size()),
            crc32_portable(buf.data(), buf.size()));
  EXPECT_EQ(crc32(buf.data() + 3, buf.size() - 10),
            crc32_portable(buf.data() + 3, buf.size() - 10));
}

TEST(SnapshotStream, Crc32FoldsWithClmulWhereTheCpuHasIt) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  EXPECT_EQ(crc32_uses_clmul(), __builtin_cpu_supports("pclmul") &&
                                    __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_FALSE(crc32_uses_clmul());
#endif
}

TEST(SnapshotStream, ReserveAndTakeLeaveTheBytesUnchanged) {
  const std::vector<std::uint8_t> want = one_section_stream();
  SnapshotWriter w;
  w.reserve(1 << 16);
  write_one_section(w);
  EXPECT_EQ(w.size(), want.size());
  EXPECT_EQ(std::move(w).take(), want);
}

// A stream of a few hundred KiB: more than one 64 KiB growth step, and
// not a power of two.
void write_large_stream(SnapshotWriter& w) {
  const std::vector<std::uint8_t> bulk = noise(150001);
  w.begin_section("large/a");
  w.put_string(std::string(bulk.begin(), bulk.end()));
  w.end_section();
  w.begin_section("large/b");
  for (std::uint64_t i = 0; i < 20000; ++i) {
    w.put_u64(i * 0x9e3779b97f4a7c15ull);
  }
  w.end_section();
}

TEST(SnapshotStream, ExactReserveNeverReallocates) {
  const std::size_t want = sized(write_large_stream);
  SnapshotWriter w;
  w.reserve(want);
  write_large_stream(w);
  const std::vector<std::uint8_t> bytes = std::move(w).take();
  EXPECT_EQ(bytes.size(), want);
  EXPECT_EQ(bytes.capacity(), want);
}

TEST(SnapshotStream, SizingPassCountsWithoutWriting) {
  SnapshotWriter s = SnapshotWriter::sizing();
  EXPECT_EQ(s.size(), 12u);  // the header
  write_one_section(s);
  EXPECT_EQ(s.size(), one_section_stream().size());
  EXPECT_THROW(s.bytes(), util::Error);
}

// A stream root that counts how often it is saved, sizing passes included.
class CountingRoot : public Snapshottable {
 public:
  void save_state(SnapshotWriter& w) const override {
    ++saves;
    w.presize(*this);
    write_one_section(w);
  }
  void load_state(SnapshotReader&) override {}
  mutable int saves = 0;
};

TEST(SnapshotStream, PresizeSizesOnlyAFreshWriterNobodyReserved) {
  const auto saves_into = [](SnapshotWriter& w) {
    CountingRoot root;
    root.save_state(w);
    return root.saves;
  };
  SnapshotWriter fresh;
  EXPECT_EQ(saves_into(fresh), 2);  // one sizing pass, one write
  SnapshotWriter zero;
  zero.reserve(0);  // reserves nothing, e.g. a first checkpoint
  EXPECT_EQ(saves_into(zero), 2);
  SnapshotWriter owned;
  owned.reserve(1 << 12);
  EXPECT_EQ(saves_into(owned), 1);
  SnapshotWriter written;
  write_one_section(written);
  EXPECT_EQ(saves_into(written), 1);
  EXPECT_EQ(written.size(), 2 * one_section_stream().size() - 12);
  SnapshotWriter sizer = SnapshotWriter::sizing();
  EXPECT_EQ(saves_into(sizer), 1);
}

TEST(SnapshotStream, NestedStreamIsASeparateStreamBehindItsLength) {
  // An in-place nested stream holds the bytes of the same stream written
  // by its own writer, sections and CRCs included, behind a u64 length.
  const auto write_nested = [](SnapshotWriter& w) {
    w.begin_section("outer");
    w.put_u32(7);
    w.nested([&] { write_one_section(w); });
    w.put_u32(9);
    w.end_section();
  };
  SnapshotWriter in_place;
  write_nested(in_place);
  EXPECT_EQ(sized(write_nested), in_place.size());

  auto r = SnapshotReader::open(in_place.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  SnapshotReader reader = std::move(r.value());
  reader.select("outer");
  EXPECT_EQ(reader.get_u32(), 7u);
  const std::vector<std::uint8_t> inner = one_section_stream();
  std::vector<std::uint8_t> nested(reader.get_u64());
  ASSERT_EQ(nested.size(), inner.size());
  reader.get_bytes(nested.data(), nested.size());
  EXPECT_EQ(nested, inner);
  EXPECT_EQ(reader.get_u32(), 9u);
  EXPECT_EQ(reader.remaining(), 0u);

  SnapshotWriter outside;
  EXPECT_THROW(outside.nested([] {}), util::Error);
  SnapshotWriter left_open;
  left_open.begin_section("outer");
  EXPECT_THROW(left_open.nested([&] { left_open.begin_section("inner"); }),
               util::Error);
}

TEST(SnapshotStream, GoldenStreamBytes) {
  // Fingerprints of two fixed streams: every primitive type in one
  // section, and a 2-board service paused mid-run under a fault plan
  // (system, board, timeline, fault and ledger sections). Any change to
  // a byte a save writes — framing, field order, encoding or CRC —
  // changes them. The constants were recorded at stream major 7.
  EXPECT_EQ(serve::digest(one_section_stream()), 0xc9455b459e7b2632ull);
  EXPECT_EQ(sized(write_one_section), one_section_stream().size());

  FaultPlan plan;
  plan.seed = 20260808;
  plan.with_rate(FaultKind::kDmaStall, 0.10);
  FaultInjector injector(plan);
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  sys.set_fault_injector(&injector);
  std::vector<std::uint8_t> bytes;
  {
    serve::JobService service(sys);
    service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
    service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
    for (int i = 0; i < 24; ++i) {
      serve::JobSpec job;
      job.tenant = i % 3 == 0 ? "atlas" : "cms";
      job.kind = serve::JobKind::kCustom;
      job.config = i % 2 == 0 ? "alpha" : "beta";
      job.deadline = i % 4 == 0 ? 2 * util::kMillisecond : 0;
      job.work = [i] {
        serve::JobOutcome out;
        out.checksum = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
        out.compute_time = (i % 5 + 1) * util::kMicrosecond;
        out.dma_in_bytes = 1024;
        out.dma_out_bytes = 256;
        return out;
      };
      (void)service.submit(std::move(job)).value();
    }
    serve::RunOptions three_steps;
    three_steps.max_dispatches = 3;
    service.run(three_steps);
    SnapshotWriter w;
    service.save_state(w);
    bytes = w.bytes();
    EXPECT_EQ(sized([&](SnapshotWriter& s) { service.save_state(s); }),
              bytes.size());
  }
  sys.set_fault_injector(nullptr);
  EXPECT_EQ(bytes.size(), 4816u);
  EXPECT_EQ(serve::digest(bytes), 0x14e1e7c9b91e7b4aull);
}

// The cases below pin the stream layouts GoldenStreamBytes never
// reaches: mid-slice job progress, checkpointed-out jobs, the
// quarantine flag, the "serve/job" checkpoint stream, the cluster,
// memory mezzanines, a non-empty S-Link FIFO and a resident simulator.

serve::JobSpec golden_job(int i, const std::string& config,
                          util::Picoseconds compute,
                          util::Picoseconds deadline) {
  serve::JobSpec job;
  job.tenant = i % 3 == 0 ? "atlas" : "cms";
  job.kind = serve::JobKind::kCustom;
  job.config = config;
  job.arrival = i * util::kMicrosecond;
  job.deadline = deadline;
  job.work = [i, compute] {
    serve::JobOutcome out;
    out.checksum = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
    out.compute_time = compute;
    out.dma_in_bytes = 512u * static_cast<std::uint64_t>(i % 3 + 1);
    out.dma_out_bytes = 128;
    return out;
  };
  return job;
}

TEST(SnapshotStream, GoldenPreemptiveServiceBytes) {
  // A kPreemptive 2-board service paused mid-slice, with one job
  // checkpointed out and board 1 quarantined, and that job's checkpoint.
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  serve::ServeOptions options;
  options.policy = serve::Policy::kPreemptive;
  options.preempt_slice = 100 * util::kMicrosecond;
  serve::JobService service(sys, options);
  service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
  service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
  for (int i = 0; i < 10; ++i) {
    (void)service
        .submit(golden_job(i, i % 2 == 0 ? "alpha" : "beta",
                           (i % 4 + 2) * 150 * util::kMicrosecond,
                           i % 3 == 1 ? 3 * util::kMillisecond : 0))
        .value();
  }
  serve::RunOptions bounded;
  bounded.max_dispatches = 5;
  service.run(bounded);
  const std::vector<serve::JobId> pending = service.pending_ids();
  ASSERT_FALSE(pending.empty());
  const serve::JobCheckpoint ckpt =
      service.checkpoint_job(pending.back()).value();
  service.set_board_enabled(1, false);
  ASSERT_TRUE(service.has_active_jobs());
  ASSERT_TRUE(service.board_quarantined(1));

  SnapshotWriter w;
  service.save_state(w);
  const std::vector<std::uint8_t>& bytes = w.bytes();
  EXPECT_EQ(sized([&](SnapshotWriter& s) { service.save_state(s); }),
            bytes.size());
  EXPECT_EQ(bytes.capacity(), bytes.size());  // the root presized exactly
  EXPECT_EQ(bytes.size(), 2832u);
  EXPECT_EQ(serve::digest(bytes), 0x814562db740ca3aaull);
  EXPECT_EQ(ckpt.bytes.size(), 124u);
  EXPECT_EQ(serve::digest(ckpt.bytes), 0xab31dd835afc1658ull);
}

TEST(SnapshotStream, GoldenClusterBytes) {
  // A 2-shard cluster after a bounded run() that carries work over.
  serve::Cluster cluster;
  cluster.add_shard();
  cluster.add_shard();
  for (int c = 0; c < 4; ++c) {
    cluster.register_config(
        hw::Bitstream{"cfg" + std::to_string(c), {}, nullptr, {}});
  }
  for (int i = 0; i < 24; ++i) {
    (void)cluster.submit(golden_job(i, "cfg" + std::to_string(i % 4),
                                    (i % 5 + 1) * util::kMicrosecond,
                                    i % 4 == 0 ? 5 * util::kMillisecond : 0));
  }
  serve::RunOptions bounded;
  bounded.max_dispatches = 2;
  cluster.run(bounded);
  ASSERT_GT(cluster.pending(), 0u);

  SnapshotWriter w;
  cluster.save_state(w);
  EXPECT_EQ(sized([&](SnapshotWriter& s) { cluster.save_state(s); }),
            w.bytes().size());
  EXPECT_EQ(w.bytes().size(), 6811u);
  EXPECT_EQ(serve::digest(w.bytes()), 0x1f99735095b2dc67ull);
  // The root presized the whole stream, shards included, exactly.
  EXPECT_EQ(std::move(w).take().capacity(), 6811u);
}

// The stream a service saves; a sizing pass must count its exact size.
std::vector<std::uint8_t> saved_stream(const serve::JobService& service) {
  SnapshotWriter w;
  service.save_state(w);
  EXPECT_EQ(sized([&](SnapshotWriter& s) { service.save_state(s); }),
            w.bytes().size());
  return w.bytes();
}

std::size_t count_jobs(const serve::JobService& service,
                       util::ErrorCode error, bool finished) {
  std::size_t n = 0;
  for (const serve::JobRecord& rec : service.jobs()) {
    if (rec.error == error && (rec.finish > 0) == finished) ++n;
  }
  return n;
}

TEST(SnapshotStream, GoldenResolutionPathsBytes) {
  // Services whose jobs left pending through every resolution path: a
  // served batch and a batch job whose result DMA failed, a dead crate
  // failing its queue with kBoardDead, a kPreemptive job served after a
  // preemption, input and result DMAs that exhausted their retries under
  // kPreemptive, and a dying crate draining to a spare that lacks one of
  // the jobs' configurations.
  {
    // kBatched, 2 boards: the second result read on acb1 exhausts its
    // four attempts; after three batches both boards die.
    FaultPlan plan;
    for (std::uint64_t nth = 2; nth <= 5; ++nth) {
      plan.inject(FaultKind::kDmaAbort, "pci/acb1", nth);
    }
    FaultInjector injector(plan);
    core::AtlantisSystem sys("crate");
    sys.add_acb("acb0");
    sys.add_acb("acb1");
    sys.set_fault_injector(&injector);
    {
      serve::ServeOptions options;
      options.max_batch = 3;
      serve::JobService service(sys, options);
      service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
      service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
      for (int i = 0; i < 12; ++i) {
        (void)service
            .submit(golden_job(i, i % 2 == 0 ? "alpha" : "beta",
                               (i % 4 + 1) * 50 * util::kMicrosecond,
                               i % 3 == 0 ? 400 * util::kMicrosecond : 0))
            .value();
      }
      serve::RunOptions three_batches;
      three_batches.max_dispatches = 3;
      service.run(three_batches);
      sys.acb(0).set_alive(false);
      sys.acb(1).set_alive(false);
      service.run();
      EXPECT_EQ(count_jobs(service, util::ErrorCode::kOk, true), 8u);
      EXPECT_EQ(count_jobs(service, util::ErrorCode::kRetriesExhausted, true),
                1u);
      EXPECT_EQ(count_jobs(service, util::ErrorCode::kBoardDead, false), 3u);
      EXPECT_EQ(service.report().failed, 3u);
      const std::vector<std::uint8_t> bytes = saved_stream(service);
      EXPECT_EQ(bytes.size(), 3763u);
      EXPECT_EQ(serve::digest(bytes), 0xfbe00933031b946eull);
    }
    sys.set_fault_injector(nullptr);
  }
  {
    // kPreemptive, 1 board: a long job starts, short deadline jobs
    // arrive and preempt it; the first short job's input DMA and the
    // second's result DMA exhaust their retries.
    FaultPlan plan;
    for (std::uint64_t nth : {2, 3, 4, 5, 7, 8, 9, 10}) {
      plan.inject(FaultKind::kDmaAbort, "pci/acb0", nth);
    }
    FaultInjector injector(plan);
    core::AtlantisSystem sys("crate");
    sys.add_acb("acb0");
    sys.set_fault_injector(&injector);
    {
      serve::ServeOptions options;
      options.policy = serve::Policy::kPreemptive;
      options.preempt_slice = 100 * util::kMicrosecond;
      serve::JobService service(sys, options);
      service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
      service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
      for (int i = 0; i < 2; ++i) {
        (void)service
            .submit(golden_job(i, "alpha", 600 * util::kMicrosecond, 0))
            .value();
      }
      serve::RunOptions one_slice;
      one_slice.max_dispatches = 1;
      service.run(one_slice);
      for (int i = 2; i < 6; ++i) {
        (void)service
            .submit(golden_job(i, i % 2 == 0 ? "beta" : "alpha",
                               150 * util::kMicrosecond,
                               3 * util::kMillisecond))
            .value();
      }
      service.run();
      EXPECT_GT(service.job(0).preemptions, 0u);
      EXPECT_EQ(service.job(0).error, util::ErrorCode::kOk);
      EXPECT_EQ(service.job(2).error, util::ErrorCode::kRetriesExhausted);
      EXPECT_EQ(service.job(2).finish, 0);
      EXPECT_EQ(service.job(3).error, util::ErrorCode::kRetriesExhausted);
      EXPECT_GT(service.job(3).finish, 0);
      EXPECT_EQ(service.report().served, 4u);
      EXPECT_EQ(service.report().failed, 2u);
      const std::vector<std::uint8_t> bytes = saved_stream(service);
      EXPECT_EQ(bytes.size(), 2575u);
      EXPECT_EQ(serve::digest(bytes), 0xeb7102730ecb3595ull);
    }
    sys.set_fault_injector(nullptr);
  }
  {
    // kPreemptive, 1 board, draining to a spare that only knows "alpha":
    // the board dies mid-job, the active job and every queued alpha job
    // migrate, every queued beta job fails its migration.
    serve::ServeOptions options;
    options.policy = serve::Policy::kPreemptive;
    options.preempt_slice = 100 * util::kMicrosecond;
    core::AtlantisSystem spare_sys("spare");
    spare_sys.add_acb("acb0");
    serve::JobService spare(spare_sys, options);
    spare.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
    core::AtlantisSystem sys("crate");
    sys.add_acb("acb0");
    serve::JobService service(sys, options);
    service.register_config(hw::Bitstream{"alpha", {}, nullptr, {}});
    service.register_config(hw::Bitstream{"beta", {}, nullptr, {}});
    service.set_migration_target(&spare);
    for (int i = 0; i < 6; ++i) {
      (void)service
          .submit(golden_job(i, i % 2 == 0 ? "alpha" : "beta",
                             300 * util::kMicrosecond, 0))
          .value();
    }
    serve::RunOptions two_slices;
    two_slices.max_dispatches = 2;
    service.run(two_slices);
    ASSERT_TRUE(service.has_active_jobs());
    sys.acb(0).set_alive(false);
    service.run();
    EXPECT_EQ(service.report().migrated, 3u);
    EXPECT_EQ(service.report().failed, 3u);
    for (const serve::JobRecord& rec : service.jobs()) {
      if (rec.config == "alpha") {
        EXPECT_TRUE(rec.migrated);
        continue;
      }
      EXPECT_EQ(rec.error, util::ErrorCode::kAdmissionReject);
      EXPECT_FALSE(rec.migrated);
      EXPECT_EQ(rec.finish, 0);
    }
    spare.run();
    EXPECT_EQ(spare.report().served, 3u);
    const std::vector<std::uint8_t> bytes = saved_stream(service);
    EXPECT_EQ(bytes.size(), 1642u);
    EXPECT_EQ(serve::digest(bytes), 0x7992011c0792c631ull);
    const std::vector<std::uint8_t> spare_bytes = saved_stream(spare);
    EXPECT_EQ(spare_bytes.size(), 1383u);
    EXPECT_EQ(serve::digest(spare_bytes), 0xbb1c6f5b35a54c03ull);
  }
}

TEST(SnapshotStream, GoldenBoardBytes) {
  // An ACB with an SDRAM and an SRAM mezzanine, words left in its S-Link
  // FIFO, and a CHDL design resident on FPGA 0 whose simulator holds
  // live register and RAM state. The simulator's activity counters are
  // part of the stream, so an engine change that evaluates a different
  // number of components moves this fingerprint too.
  core::AcbBoard board("acb0");
  board.attach_memory(0, core::MemModule::make_volren("vr0"));
  board.attach_memory(1, core::MemModule::make_trt("trt1"));
  hw::SyncSram& sram = *board.memory_at(1)->sram();
  for (int a = 0; a < 8; ++a) {
    sram.write(0, 97 * a + 5, chdl::BitVec(176, 0xA5A5A5A5ull * (a + 1)));
  }
  hw::Sdram& sdram = *board.memory_at(0)->sdram();
  for (std::uint64_t addr : {0ull, 64ull, 1ull << 20, 3ull << 24, 72ull}) {
    (void)sdram.access(addr);
  }
  (void)board.slink().send_fragment(7, {0x11, 0x22, 0x33, 0x44});
  ASSERT_TRUE(board.slink().receive().has_value());  // head moves off 0

  chdl::Design design("goldenboard");
  const chdl::Wire en = design.input("en", 1);
  const chdl::Wire din = design.input("din", 16);
  const chdl::Wire cnt = chdl::counter(design, "cnt", 8, en);
  const chdl::Wire acc = design.reg_forward("acc", 16);
  design.reg_connect(acc, design.add(acc, din));
  const int ram = design.add_ram("mem", 32, 16);
  const chdl::Wire addr = design.slice(cnt, 0, 5);
  design.ram_write(ram, addr, acc, en);
  design.output("cnt", cnt);
  design.output("rd", design.ram_read(ram, addr));
  board.fpga(0).configure(hw::Bitstream::from_design(design));
  chdl::Simulator& sim = *board.fpga(0).sim();
  for (std::uint64_t i = 0; i < 40; ++i) {
    sim.poke("en", i % 3 != 0 ? 1 : 0);
    sim.poke("din", (i * 37) & 0xFFFF);
    sim.step();
  }

  const auto save_board = [&](SnapshotWriter& s) {
    s.begin_section("board/acb0");
    board.save_state(s);
    s.end_section();
  };
  SnapshotWriter w;
  save_board(w);
  EXPECT_EQ(sized(save_board), w.bytes().size());
  EXPECT_EQ(w.bytes().size(), 12583753u);
  EXPECT_EQ(serve::digest(w.bytes()), 0x8a0194eb8c8dc785ull);
}

// --- Timeline ----------------------------------------------------------

struct TwinTimelines {
  Timeline a;
  Timeline b;
  ResourceId pci_a, pci_b;
  TrackId t0_a, t0_b;

  TwinTimelines() {
    pci_a = a.add_resource("cpci");
    pci_b = b.add_resource("cpci");
    t0_a = a.add_track("driver0");
    t0_b = b.add_track("driver0");
  }
};

TEST(TimelineSnapshot, RoundTripAndContinuedGrantsMatch) {
  TwinTimelines tw;
  for (int i = 0; i < 20; ++i) {
    tw.a.post(tw.t0_a, TxnKind::kPciDma, "dma", tw.pci_a, i * 10, 25, 4096);
  }

  SnapshotWriter w;
  tw.a.save_state(w);
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  tw.b.load_state(r.value());

  EXPECT_EQ(tw.b.horizon(), tw.a.horizon());
  // The log is a trace, not state: the twin's starts at the restored
  // count.
  EXPECT_TRUE(tw.b.transactions().empty());
  EXPECT_EQ(tw.b.posted(), 20u);
  const ResourceStats sa = tw.a.stats(tw.pci_a);
  const ResourceStats sb = tw.b.stats(tw.pci_b);
  EXPECT_EQ(sb.transactions, sa.transactions);
  EXPECT_EQ(sb, sa);

  // The restored arbiter state must grant the next transaction at the
  // exact same instant — that is what makes mid-stream restore exact.
  const Transaction& na =
      tw.a.post(tw.t0_a, TxnKind::kPciDma, "next", tw.pci_a, 0, 10, 64);
  const Transaction& nb =
      tw.b.post(tw.t0_b, TxnKind::kPciDma, "next", tw.pci_b, 0, 10, 64);
  EXPECT_EQ(na.id, nb.id);
  EXPECT_EQ(na.start, nb.start);
  EXPECT_EQ(na.end, nb.end);
}

// The payload size of a stream's "sim/timeline" section.
std::size_t timeline_section_bytes(const Timeline& t) {
  SnapshotWriter w;
  t.save_state(w);
  auto r = SnapshotReader::open(w.bytes());
  EXPECT_TRUE(r.ok()) << r.message();
  r.value().select("sim/timeline");
  return r.value().remaining();
}

TEST(TimelineSnapshot, SavedSizeDoesNotGrowWithTheLog) {
  TwinTimelines tw;
  for (int i = 0; i < 10; ++i) {
    tw.a.post(tw.t0_a, TxnKind::kPciDma, "dma", tw.pci_a, i * 10, 25, 4096);
  }
  for (int i = 0; i < 10'000; ++i) {
    tw.b.post(tw.t0_b, TxnKind::kPciDma, "dma", tw.pci_b, i * 10, 25, 4096);
  }
  ASSERT_EQ(tw.b.transactions().size(), 10'000u);
  EXPECT_EQ(timeline_section_bytes(tw.b), timeline_section_bytes(tw.a));
}

TEST(TimelineSnapshot, TwinLogStartsAtTheRestoredCount) {
  TwinTimelines tw;
  for (int i = 0; i < 12; ++i) {
    tw.a.post(tw.t0_a, TxnKind::kPciDma, "dma", tw.pci_a, i * 10, 25, 4096);
    tw.a.post(tw.t0_a, TxnKind::kCompute, "work", ResourceId{}, i * 10, 7);
  }
  const std::uint64_t k = tw.a.posted();
  ASSERT_EQ(k, 24u);
  SnapshotWriter w;
  tw.a.save_state(w);
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  tw.b.load_state(r.value());

  EXPECT_TRUE(tw.b.transactions().empty());
  EXPECT_EQ(tw.b.posted(), k);
  EXPECT_THROW((void)tw.b.txn(0), util::Error);
  for (int i = 0; i < 5; ++i) {
    const Transaction& x =
        tw.a.post(tw.t0_a, TxnKind::kPciDma, "more", tw.pci_a, i, 40, 64);
    const Transaction& y =
        tw.b.post(tw.t0_b, TxnKind::kPciDma, "more", tw.pci_b, i, 40, 64);
    EXPECT_EQ(y.id, x.id);
    EXPECT_EQ(y.start, x.start);
    EXPECT_EQ(y.end, x.end);
  }
  EXPECT_EQ(tw.b.txn(k).id, k);
  EXPECT_EQ(tw.b.txn(k).start, tw.a.txn(k).start);
  EXPECT_EQ(tw.b.txn(k).label, "more");
  EXPECT_THROW((void)tw.b.txn(k - 1), util::Error);
  EXPECT_THROW((void)tw.b.txn(k + 5), util::Error);
  ASSERT_EQ(tw.b.transactions().size(), 5u);
  EXPECT_EQ(tw.b.transactions().front().id, k);
  EXPECT_EQ(tw.b.horizon(), tw.a.horizon());
  const ResourceStats sa = tw.a.stats(tw.pci_a);
  const ResourceStats sb = tw.b.stats(tw.pci_b);
  EXPECT_EQ(sb.transactions, sa.transactions);
  EXPECT_EQ(sb.busy, sa.busy);
  EXPECT_EQ(sb.queue_delay, sa.queue_delay);
}

TEST(TimelineSnapshot, LoadRejectsMismatchedRegistration) {
  Timeline a;
  a.add_resource("cpci");
  SnapshotWriter w;
  a.save_state(w);

  Timeline other;
  other.add_resource("not-cpci");
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  EXPECT_THROW(other.load_state(r.value()), util::Error);
}

TEST(TimelineSnapshot, LabelsSurviveGrowthMoveAndAFailedLoad) {
  constexpr int kLabels = 200'000;
  const auto label = [](int i) {
    return "job#" + std::to_string(i) + std::string(i % 29, '+');
  };
  const auto reads_back = [&](const Timeline& t) {
    if (t.transactions().size() != static_cast<std::size_t>(kLabels)) {
      return false;
    }
    for (int i = 0; i < kLabels; ++i) {
      if (t.transactions()[static_cast<std::size_t>(i)].label != label(i)) {
        return false;
      }
    }
    return true;
  };
  const auto registered = [] {
    Timeline t;
    t.add_resource("cpci");
    t.add_track("drv");
    return t;
  };

  // Many log growths and label chunks, then a move.
  Timeline a = registered();
  for (int i = 0; i < kLabels; ++i) {
    a.post(TrackId{0}, TxnKind::kCompute, label(i),
           i % 2 == 0 ? ResourceId{0} : ResourceId{}, i, 1);
  }
  EXPECT_TRUE(reads_back(a));
  Timeline moved = std::move(a);
  EXPECT_TRUE(reads_back(moved));

  // The stream carries no log, so a twin saves the same bytes.
  SnapshotWriter w;
  moved.save_state(w);
  Timeline twin = registered();
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  twin.load_state(r.value());
  SnapshotWriter again;
  twin.save_state(again);
  EXPECT_EQ(again.bytes(), w.bytes());

  // A load that throws leaves the scheduler state as it was, too.
  const std::vector<ResourceStats> stats = moved.all_stats();
  const util::Picoseconds horizon = moved.horizon();
  const int tracks = moved.track_count();
  const std::string track = moved.track_name(TrackId{0});
  const std::uint64_t posted = moved.posted();
  const auto unchanged = [&](const Timeline& t) {
    return t.all_stats() == stats && t.horizon() == horizon &&
           t.track_count() == tracks && t.track_name(TrackId{0}) == track &&
           t.posted() == posted;
  };

  // A stream from a timeline with other resources throws at its census:
  // the log and every label stay readable.
  Timeline other;
  other.add_resource("not-cpci");
  SnapshotWriter ow;
  other.save_state(ow);
  auto foreign = SnapshotReader::open(ow.bytes());
  ASSERT_TRUE(foreign.ok());
  EXPECT_THROW(moved.load_state(foreign.value()), util::Error);
  EXPECT_TRUE(reads_back(moved));
  EXPECT_TRUE(unchanged(moved));

  // A stream cut off before its horizon throws after it read a posted
  // count this log reaches and another timeline's resources and tracks:
  // the section commits, and the log is cut, only once the whole section
  // read, so the timeline keeps its state and every entry.
  Timeline small = registered();
  for (int i = 0; i < 1000; ++i) {
    small.post(TrackId{0}, TxnKind::kCompute, "small#" + std::to_string(i),
               ResourceId{}, i, 1);
  }
  SnapshotWriter full;
  small.save_state(full);
  auto whole = SnapshotReader::open(full.bytes());
  ASSERT_TRUE(whole.ok());
  whole.value().select("sim/timeline");
  std::vector<std::uint8_t> payload(whole.value().remaining());
  whole.value().get_bytes(payload.data(), payload.size());
  SnapshotWriter cut;
  cut.begin_section("sim/timeline");
  for (std::size_t i = 0; i + sizeof(std::int64_t) < payload.size(); ++i) {
    cut.put_u8(payload[i]);  // all but the trailing horizon
  }
  cut.end_section();
  auto truncated = SnapshotReader::open(cut.bytes());
  ASSERT_TRUE(truncated.ok());
  EXPECT_THROW(moved.load_state(truncated.value()), util::Error);
  EXPECT_TRUE(reads_back(moved));
  EXPECT_TRUE(unchanged(moved));
}

// --- FaultInjector -----------------------------------------------------

FaultPlan busy_plan() {
  FaultPlan plan;
  plan.seed = 20260808;
  plan.with_rate(FaultKind::kDmaStall, 0.15)
      .with_rate(FaultKind::kSlinkError, 0.08)
      .with_rate(FaultKind::kSeuMemory, 0.05);
  plan.inject(FaultKind::kConfigCrc, "fpga/acb0/fpga0", 3);
  return plan;
}

std::vector<bool> draw_tail(FaultInjector& inj, int n) {
  std::vector<bool> hits;
  for (int i = 0; i < n; ++i) {
    hits.push_back(inj.draw(FaultKind::kDmaStall, "pci/acb0").has_value());
    hits.push_back(inj.draw(FaultKind::kSlinkError, "slink/a").has_value());
    hits.push_back(
        inj.draw(FaultKind::kSeuMemory, "mem/acb0/m0").has_value());
    hits.push_back(
        inj.draw(FaultKind::kConfigCrc, "fpga/acb0/fpga0").has_value());
  }
  return hits;
}

TEST(FaultSnapshot, RestoredInjectorReplaysTheSameFaultTail) {
  FaultInjector a(busy_plan());
  draw_tail(a, 25);  // advance mid-stream

  SnapshotWriter w;
  a.save_state(w);
  FaultInjector b(busy_plan());
  draw_tail(b, 7);  // twin is deliberately out of sync before the load
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok()) << r.message();
  b.load_state(r.value());

  EXPECT_EQ(b.log(), a.log());
  // The tail after the restore point is the tail the original produces.
  EXPECT_EQ(draw_tail(b, 40), draw_tail(a, 40));
  EXPECT_EQ(b.log(), a.log());
}

TEST(FaultSnapshot, GenesisLoadRewindsAUsedInjector) {
  // Loading a freshly constructed injector's stream into a used one
  // drops every site stream it created since, not just the shared ones.
  FaultInjector inj(busy_plan());
  SnapshotWriter genesis;
  inj.save_state(genesis);
  const std::vector<bool> first = draw_tail(inj, 30);
  EXPECT_FALSE(inj.log().empty());

  const auto load_genesis = [&] {
    auto r = SnapshotReader::open(genesis.bytes());
    ASSERT_TRUE(r.ok()) << r.message();
    inj.load_state(r.value());
  };
  load_genesis();
  EXPECT_TRUE(inj.log().empty());
  EXPECT_EQ(inj.opportunities(FaultKind::kDmaStall, "pci/acb0"), 0u);
  load_genesis();  // idempotent: a second load changes nothing
  EXPECT_TRUE(inj.log().empty());

  // Replay after the load is bit-identical to the first run and to a
  // freshly constructed injector.
  EXPECT_EQ(draw_tail(inj, 30), first);
  FaultInjector fresh(busy_plan());
  EXPECT_EQ(draw_tail(fresh, 30), first);
}

TEST(FaultSnapshot, LoadRestoresPlanAndScheduledFaults) {
  FaultInjector a(busy_plan());
  draw_tail(a, 2);
  SnapshotWriter w;
  a.save_state(w);

  FaultPlan other;  // different plan; the load replaces it wholesale
  other.seed = 1;
  FaultInjector b(other);
  auto r = SnapshotReader::open(w.bytes());
  ASSERT_TRUE(r.ok());
  b.load_state(r.value());
  EXPECT_EQ(b.plan().seed, busy_plan().seed);
  EXPECT_EQ(b.plan().rate(FaultKind::kDmaStall), 0.15);
  ASSERT_EQ(b.plan().scheduled.size(), 1u);
  EXPECT_EQ(b.plan().scheduled[0].site, "fpga/acb0/fpga0");
  EXPECT_EQ(draw_tail(b, 10), draw_tail(a, 10));
}

}  // namespace
}  // namespace atlantis::sim
