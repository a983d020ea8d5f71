#include "sim/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace atlantis::sim {
namespace {

TEST(Timeline, UncontendedStartsExactlyAtNotBefore) {
  Timeline tl;
  const ResourceId bus = tl.add_resource("bus");
  const TrackId t = tl.add_track("actor");
  const Transaction a = tl.post(t, TxnKind::kPciDma, "a", bus, 100, 50);
  EXPECT_EQ(a.start, 100);
  EXPECT_EQ(a.end, 150);
  EXPECT_EQ(a.queue_delay(), 0);
  // Sequential chaining end-to-start stays exact: this is what makes the
  // driver's cursor bit-identical to the old scalar ledger.
  const Transaction b = tl.post(t, TxnKind::kPciDma, "b", bus, a.end, 30);
  EXPECT_EQ(b.start, 150);
  EXPECT_EQ(b.end, 180);
  EXPECT_EQ(tl.horizon(), 180);
}

TEST(Timeline, ContentionQueuesFifo) {
  Timeline tl;
  const ResourceId bus = tl.add_resource("bus");
  const TrackId t0 = tl.add_track("board0");
  const TrackId t1 = tl.add_track("board1");
  const Transaction a = tl.post(t0, TxnKind::kPciDma, "a", bus, 0, 100);
  const Transaction b = tl.post(t1, TxnKind::kPciDma, "b", bus, 0, 100);
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(b.start, 100);  // second requester waits for the segment
  EXPECT_EQ(b.queue_delay(), 100);
  EXPECT_EQ(tl.horizon(), 200);
  const ResourceStats s = tl.stats(bus);
  EXPECT_EQ(s.transactions, 2u);
  EXPECT_EQ(s.busy, 200);
  EXPECT_EQ(s.queue_delay, 100);
}

TEST(Timeline, MultiChannelResourceServesConcurrently) {
  Timeline tl;
  const ResourceId pair = tl.add_resource("pair", 2);
  const TrackId t = tl.add_track("actor");
  const Transaction a = tl.post(t, TxnKind::kOther, "a", pair, 0, 100);
  const Transaction b = tl.post(t, TxnKind::kOther, "b", pair, 0, 100);
  const Transaction c = tl.post(t, TxnKind::kOther, "c", pair, 0, 100);
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(b.start, 0);    // second channel
  EXPECT_EQ(c.start, 100);  // both channels busy; earliest-free grant
  EXPECT_EQ(tl.horizon(), 200);
}

TEST(Timeline, ResourcelessTransactionNeverQueues) {
  Timeline tl;
  const TrackId t = tl.add_track("actor");
  const Transaction a =
      tl.post(t, TxnKind::kReconfig, "configure", ResourceId{}, 42, 10);
  EXPECT_EQ(a.start, 42);
  EXPECT_EQ(a.end, 52);
  EXPECT_EQ(a.queue_delay(), 0);
}

TEST(Timeline, OverlapJoinsAtMaxNotSum) {
  // The async-DMA pattern: bus transfer and compute posted at the same
  // cursor overlap; the join is the max of the ends.
  Timeline tl;
  const ResourceId bus = tl.add_resource("bus");
  const ResourceId design = tl.add_resource("design");
  const TrackId t = tl.add_track("driver");
  const Transaction dma = tl.post(t, TxnKind::kPciDma, "in", bus, 0, 80);
  const Transaction scan =
      tl.post(t, TxnKind::kCompute, "scan", design, 0, 100);
  const util::Picoseconds join = std::max(dma.end, scan.end);
  EXPECT_EQ(join, 100);
  EXPECT_LT(join, dma.duration() + scan.duration());
  EXPECT_EQ(tl.horizon(), 100);
}

TEST(Timeline, StatsAccumulateBytesAndUtilization) {
  Timeline tl;
  const ResourceId bus = tl.add_resource("bus");
  const TrackId t = tl.add_track("actor");
  tl.post(t, TxnKind::kPciDma, "a", bus, 0, 250, 1000);
  tl.post(t, TxnKind::kPciDma, "b", bus, 250, 750, 3000);
  const ResourceStats s = tl.stats(bus);
  EXPECT_EQ(s.bytes, 4000u);
  EXPECT_EQ(s.transactions, 2u);
  EXPECT_EQ(s.busy, 1000);
  EXPECT_DOUBLE_EQ(s.utilization(tl.horizon()), 1.0);
}

TEST(Timeline, ReconfigTransactionsCarryRegionCounts) {
  Timeline tl;
  const TrackId t = tl.add_track("switcher");
  const Transaction full =
      tl.post(t, TxnKind::kReconfig, "full load", ResourceId{}, 0, 100);
  EXPECT_EQ(full.regions, 0u);  // monolithic load: no region count
  const Transaction diff = tl.post(t, TxnKind::kReconfig, "diff load",
                                   ResourceId{}, 100, 10, /*bytes=*/512,
                                   /*regions=*/4);
  EXPECT_EQ(diff.regions, 4u);
  EXPECT_EQ(tl.txn(diff.id).regions, 4u);  // survives in the ledger
}

TEST(Timeline, RejectsBadPosts) {
  Timeline tl;
  const ResourceId bus = tl.add_resource("bus");
  const TrackId t = tl.add_track("actor");
  EXPECT_THROW(tl.post(TrackId{}, TxnKind::kOther, "x", bus, 0, 1),
               util::Error);
  EXPECT_THROW(tl.post(t, TxnKind::kOther, "x", ResourceId{7}, 0, 1),
               util::Error);
  EXPECT_THROW(tl.post(t, TxnKind::kOther, "x", bus, -1, 1), util::Error);
  EXPECT_THROW(tl.add_resource("zero", 0), util::Error);
}

// --- Chrome-trace schema ---------------------------------------------------

/// Builds a small contended schedule and returns its exported trace.
std::string sample_trace(Timeline& tl) {
  const ResourceId bus = tl.add_resource("crate/cpci");
  const ResourceId design = tl.add_resource("acb0/design");
  const TrackId d0 = tl.add_track("drv/acb0");
  const TrackId d1 = tl.add_track("drv/acb1");
  tl.post(d0, TxnKind::kPciDma, "dma a", bus, 0, 100, 4096);
  tl.post(d1, TxnKind::kPciDma, "dma b", bus, 0, 100, 4096);
  tl.post(d0, TxnKind::kCompute, "scan", design, 100, 300);
  tl.post(d1, TxnKind::kReconfig, "configure", ResourceId{}, 0, 50);
  std::ostringstream out;
  tl.export_chrome_trace(out);
  return out.str();
}

TEST(ChromeTrace, ParsesAndHasCataloguedPhases) {
  Timeline tl;
  const util::JsonValue doc = util::json_parse(sample_trace(tl));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  // Every metadata and complete event is well formed; categories come
  // from the transaction-kind catalogue.
  const std::set<std::string> catalogue{
      "pci_dma", "target_access", "aab_channel", "slink_stream",
      "reconfig", "compute", "backoff", "queue_wait", "other"};
  int complete = 0, meta = 0;
  for (const util::JsonValue& e : events) {
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "X" || ph == "M") << "unexpected phase " << ph;
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      EXPECT_FALSE(e.at("args").at("name").as_string().empty());
    } else {
      ++complete;
      EXPECT_TRUE(catalogue.count(e.at("cat").as_string()))
          << "uncatalogued category " << e.at("cat").as_string();
      EXPECT_GE(e.at("ts").as_number(), 0.0);
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_GE(e.at("args").at("bytes").as_number(), 0.0);
    }
  }
  // One thread_name per resource and per track; one X per transaction.
  EXPECT_EQ(meta, tl.resource_count() + tl.track_count());
  EXPECT_EQ(complete, static_cast<int>(tl.transactions().size()));
}

TEST(ChromeTrace, TimestampsMonotonicPerTid) {
  Timeline tl;
  const util::JsonValue doc = util::json_parse(sample_trace(tl));
  std::map<int, double> last_ts;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const int tid = static_cast<int>(e.at("tid").as_number());
    const double ts = e.at("ts").as_number();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "track " << tid << " goes backwards";
    }
    last_ts[tid] = ts;
  }
  EXPECT_FALSE(last_ts.empty());
}

TEST(ChromeTrace, TrackIdsAreStable) {
  // tid layout: 0..R-1 resources (named "res:..."), R..R+T-1 actors
  // ("actor:..."); resource-less transactions land on their actor's tid.
  Timeline tl;
  const util::JsonValue doc = util::json_parse(sample_trace(tl));
  std::map<int, std::string> names;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "M") continue;
    names[static_cast<int>(e.at("tid").as_number())] =
        e.at("args").at("name").as_string();
  }
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "res:crate/cpci");
  EXPECT_EQ(names[1], "res:acb0/design");
  EXPECT_EQ(names[2], "actor:drv/acb0");
  EXPECT_EQ(names[3], "actor:drv/acb1");
  // The resource-less reconfigure is attributed to drv/acb1's tid (3).
  bool reconfig_on_actor = false;
  for (const util::JsonValue& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "X" &&
        e.at("cat").as_string() == "reconfig") {
      reconfig_on_actor = static_cast<int>(e.at("tid").as_number()) == 3;
    }
  }
  EXPECT_TRUE(reconfig_on_actor);
}

}  // namespace
}  // namespace atlantis::sim
