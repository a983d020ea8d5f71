// S1 — the serving layer: batched scheduling with a bitstream cache
// versus reconfigure-per-job, and differential partial reconfiguration
// on the cache-miss path.
//
// A two-board crate serves a mixed stream of TRT event blocks and image
// tiles submitted by two tenants. The naive policy drains the stream in
// strict submission order with the cache disabled, so nearly every job
// swaps the FPGA configuration; the batched policy groups same-config
// jobs and keeps recent bitstreams staged. The three configurations
// share a common base bitstream and differ in a few of the ORCA's 32
// configuration regions, so with region-diff loading enabled a cache
// miss re-shifts a handful of frames instead of the full 18.75 ms load
// — the hardware task switch the paper's ORCA parts were chosen for.
// A dropout row drops a board mid-stream and checks the service drains
// it without losing a job.
// Every policy must produce bit-identical job results (the ledger
// check): reconfiguration policy moves time, never answers.
//
// Set S1_DIFF=off to pin every row to the full-configure path (the CI
// A/B baseline).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/serve_adapter.hpp"
#include "serve/jobservice.hpp"
#include "sim/fault.hpp"
#include "sim/snapshot.hpp"
#include "trt/hwmodel.hpp"
#include "trt/serve_adapter.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace atlantis;

namespace {

constexpr int kRegions = 32;  // ORCA 3T125 configuration regions

struct ServeCell {
  std::string name;
  std::uint64_t served = 0;
  std::uint64_t failed = 0;
  double jobs_per_s = 0.0;   // simulated-time throughput
  double p50_ms = 0.0;       // queue wait, all tenants pooled
  double p99_ms = 0.0;
  double hit_rate = 0.0;
  std::uint64_t full_reconfigs = 0;
  std::uint64_t partial_reconfigs = 0;
  std::uint64_t regions_loaded = 0;
  double reconfig_ms = 0.0;
  double partial_reconfig_ms = 0.0;
  double makespan_ms = 0.0;
  int dead_boards = 0;
  std::uint64_t migrated = 0;      // jobs drained to the spare crate
  std::uint64_t results_hash = 0;  // job outcomes, timing-free
  std::uint64_t func_hash = 0;     // id-free functional ledger digest
};

struct Workload {
  trt::PatternBank* bank = nullptr;
  std::vector<trt::Event>* events = nullptr;
  trt::TrtHwConfig trt_cfg;
  std::vector<imgproc::Gray8>* tiles = nullptr;
  imgproc::Kernel3x3 blur_kernel;
  imgproc::Kernel3x3 edge_kernel;
  imgproc::ImgHwConfig img_cfg;
  std::vector<int> order;  // 0 = TRT, 1 = imgproc blur, 2 = imgproc edge
};

/// The three serve configurations as region-signed bitstreams: all share
/// a base; the TRT LUT occupies its own frames, the two image kernels
/// share their convolution datapath and differ only in coefficient
/// pages. Switching conv<->edge costs 2 frames, trt<->img costs 8.
std::vector<hw::Bitstream> make_configs() {
  const auto base = hw::make_region_signatures("serve_base", kRegions);
  hw::Bitstream trt_lut;
  trt_lut.name = "trt_lut";
  trt_lut.region_sigs = base;
  hw::stamp_regions(trt_lut.region_sigs, "trt_lut", 0, 3);
  hw::Bitstream img_conv;
  img_conv.name = "img_conv";
  img_conv.region_sigs = base;
  hw::stamp_regions(img_conv.region_sigs, "img_datapath", 3, 6);
  hw::Bitstream img_edge = img_conv;
  img_edge.name = "img_edge";
  hw::stamp_regions(img_edge.region_sigs, "edge_coeffs", 6, 8);
  return {trt_lut, img_conv, img_edge};
}

/// Timing-free digest of every job's outcome: policy changes the
/// schedule, never the answers.
std::uint64_t hash_results(const std::vector<serve::JobRecord>& records) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const serve::JobRecord& r : records) {
    mix(r.id);
    mix(static_cast<std::uint64_t>(r.error));
    mix(r.outcome.checksum);
    for (const char c : r.config) mix(static_cast<std::uint64_t>(c));
  }
  return h;
}

/// Id-free digest of what was actually served, summed over any number
/// of ledgers: migration reissues JobIds on the target, so the check
/// "no job was lost or altered crossing crates" must hash (tenant,
/// config, checksum) of every served record, order-independently.
std::uint64_t functional_digest(
    const std::vector<const std::vector<serve::JobRecord>*>& ledgers) {
  std::vector<std::uint64_t> entries;
  for (const auto* records : ledgers) {
    for (const serve::JobRecord& r : *records) {
      if (r.error != util::ErrorCode::kOk || r.migrated) continue;
      std::uint64_t h = 1469598103934665603ull;
      auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
      };
      for (const char c : r.tenant) mix(static_cast<std::uint64_t>(c));
      for (const char c : r.config) mix(static_cast<std::uint64_t>(c));
      mix(r.outcome.checksum);
      entries.push_back(h);
    }
  }
  std::sort(entries.begin(), entries.end());
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t e : entries) {
    h ^= e;
    h *= 1099511628211ull;
  }
  return h;
}

ServeCell run_cell(const std::string& name, const Workload& w,
                   const serve::ServeOptions& options,
                   const sim::FaultPlan* plan, bool migrate = false) {
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  sys.add_acb("acb1");
  sim::FaultInjector injector{plan != nullptr ? *plan : sim::FaultPlan{}};
  if (plan != nullptr) sys.set_fault_injector(&injector);

  serve::JobService service(sys, options);
  for (const hw::Bitstream& bs : make_configs()) service.register_config(bs);

  // Spare crate standing by: with a migration target set, losing the
  // serving capacity drains pending jobs there via migrate_job instead
  // of failing them with kBoardDead.
  core::AtlantisSystem spare_sys("spare");
  std::unique_ptr<serve::JobService> spare;
  if (migrate) {
    spare_sys.add_acb("spare0");
    spare = std::make_unique<serve::JobService>(spare_sys, options);
    for (const hw::Bitstream& bs : make_configs()) spare->register_config(bs);
    service.set_migration_target(spare.get());
  }

  ServeCell cell;
  cell.name = name;
  std::uint64_t hits = 0, misses = 0;
  util::Picoseconds makespan = 0, reconfig_time = 0, partial_time = 0;

  // The stream arrives in bursts: each wave is submitted, then served to
  // completion before the next burst lands. Later waves revisit
  // configurations the earlier waves staged — that is where the
  // bitstream cache pays (per-run() queues drain one config at a time,
  // so a single monolithic run would never swing back to a config).
  constexpr int kWaves = 8;
  const std::size_t per_wave = (w.order.size() + kWaves - 1) / kWaves;
  std::size_t next_event = 0, next_tile = 0, i = 0;
  for (int wave = 0; wave < kWaves && i < w.order.size(); ++wave) {
    for (std::size_t j = 0; j < per_wave && i < w.order.size(); ++j, ++i) {
      const util::Picoseconds arrival =
          static_cast<util::Picoseconds>(i) * 10 * util::kMicrosecond;
      if (w.order[i] == 0) {
        const trt::Event& ev = (*w.events)[next_event++ % w.events->size()];
        (void)service
            .submit(trt::make_histogram_job(*w.bank, ev, w.trt_cfg,
                                            "trigger", "trt_lut", arrival))
            .value_or_throw();
      } else {
        const imgproc::Gray8& tile =
            (*w.tiles)[next_tile++ % w.tiles->size()];
        const bool edge = w.order[i] == 2;
        (void)service
            .submit(imgproc::make_filter_job(
                tile, edge ? w.edge_kernel : w.blur_kernel, w.img_cfg,
                edge ? "mosaic" : "imaging", edge ? "img_edge" : "img_conv",
                arrival))
            .value_or_throw();
      }
    }
    const serve::ServiceReport& rep = service.run();
    cell.served += rep.served;
    cell.failed += rep.failed;
    cell.full_reconfigs += rep.full_reconfigs;
    cell.partial_reconfigs += rep.partial_reconfigs;
    cell.regions_loaded += rep.regions_loaded;
    cell.dead_boards += static_cast<int>(rep.dead_boards.size());
    hits += rep.cache_hits;
    misses += rep.cache_misses;
    reconfig_time += rep.reconfig_time;
    partial_time += rep.partial_reconfig_time;
    makespan = std::max(makespan, rep.makespan);
    cell.migrated += rep.migrated;
    if (spare) {
      // Serve whatever this wave drained to the spare crate.
      const serve::ServiceReport& srep = spare->run();
      cell.served += srep.served;
      cell.failed += srep.failed;
      makespan = std::max(makespan, srep.makespan);
    }
  }

  cell.hit_rate = hits + misses == 0
                      ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(hits + misses);
  cell.reconfig_ms = util::ps_to_ms(reconfig_time);
  cell.partial_reconfig_ms = util::ps_to_ms(partial_time);
  cell.makespan_ms = util::ps_to_ms(makespan);
  if (makespan > 0) {
    cell.jobs_per_s = static_cast<double>(cell.served) /
                      (static_cast<double>(makespan) / 1e12);
  }
  std::vector<double> waits;
  for (const serve::JobRecord& rec : service.jobs()) {
    if (rec.board >= 0) waits.push_back(static_cast<double>(rec.queue_wait));
  }
  if (!waits.empty()) {
    cell.p50_ms = util::ps_to_ms(
        static_cast<util::Picoseconds>(util::percentile(waits, 0.50)));
    cell.p99_ms = util::ps_to_ms(
        static_cast<util::Picoseconds>(util::percentile(waits, 0.99)));
  }
  cell.results_hash = hash_results(service.jobs());
  std::vector<const std::vector<serve::JobRecord>*> ledgers{&service.jobs()};
  if (spare) ledgers.push_back(&spare->jobs());
  cell.func_hash = functional_digest(ledgers);
  if (plan != nullptr) sys.set_fault_injector(nullptr);
  return cell;
}

}  // namespace

int main() {
  bench::banner("S1", "job service: batching + bitstream cache + "
                      "differential reconfiguration vs reconfigure-per-job");

  const int n_jobs = bench::smoke() ? 12 : 48;
  const char* s1_diff = std::getenv("S1_DIFF");
  const bool diff_on = s1_diff == nullptr || std::string(s1_diff) != "off";
  if (!diff_on) std::printf("S1_DIFF=off: differential loading disabled\n");

  // --- shared workload (identical stream for every policy) -------------
  // Reduced TRT geometry: a job must cost far less than the ~19 ms full
  // configuration load, or reconfiguration policy would not matter.
  trt::DetectorGeometry geo;
  geo.layers = 32;
  geo.straws_per_layer = 128;
  trt::PatternBank bank(geo, 256);
  trt::EventParams ep;
  ep.tracks = 6;
  ep.noise_occupancy = 0.02;
  trt::EventGenerator gen(bank, ep);
  std::vector<trt::Event> events;
  for (int i = 0; i < 8; ++i) events.push_back(gen.generate());

  std::vector<imgproc::Gray8> tiles;
  util::Rng rng(0x51ull);
  for (int t = 0; t < 8; ++t) {
    imgproc::Gray8 tile(64, 64);
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        tile(x, y) = static_cast<std::uint8_t>(rng.next_below(256));
      }
    }
    tiles.push_back(std::move(tile));
  }

  Workload w;
  w.bank = &bank;
  w.events = &events;
  w.trt_cfg = trt::TrtHwConfig{};
  w.tiles = &tiles;
  w.blur_kernel = imgproc::Kernel3x3::gaussian();
  w.edge_kernel = imgproc::Kernel3x3::sharpen();
  // An irregular interleave over THREE configurations on two boards:
  // a strictly alternating two-config stream would park each
  // configuration on its own board by accident, hiding both the
  // reconfiguration cost the naive policy pays and the cache hits the
  // batched policy earns when it swings back to a staged bitstream.
  for (int i = 0; i < n_jobs; ++i) {
    w.order.push_back(static_cast<int>(rng.next_below(3)));
  }

  serve::ServeOptions naive;
  naive.max_batch = 1;
  naive.cache_capacity = 0;
  naive.fifo_order = true;
  naive.differential_reconfig = false;  // the legacy baseline
  serve::ServeOptions batched;  // defaults: batch 8, cache 4
  batched.differential_reconfig = false;
  serve::ServeOptions batched_diff = batched;
  batched_diff.differential_reconfig = diff_on;

  const ServeCell n = run_cell("naive fifo", w, naive, nullptr);
  const ServeCell b = run_cell("batched+cache", w, batched, nullptr);
  const ServeCell bd = run_cell("batched+diff", w, batched_diff, nullptr);
  sim::FaultPlan plan;
  plan.inject(sim::FaultKind::kBoardDropout, "board/acb1", /*nth=*/1);
  const ServeCell d = run_cell("dropout", w, batched_diff, &plan);
  // Total crate loss with a spare crate standing by: both boards drop
  // on their first dispatch, so every job crosses crates via
  // migrate_job instead of failing with kBoardDead.
  sim::FaultPlan total_loss;
  total_loss.inject(sim::FaultKind::kBoardDropout, "board/acb0", /*nth=*/1);
  total_loss.inject(sim::FaultKind::kBoardDropout, "board/acb1", /*nth=*/1);
  const ServeCell m =
      run_cell("dropout+migrate", w, batched_diff, &total_loss,
               /*migrate=*/true);

  util::Table table("mixed TRT/imgproc stream, " + std::to_string(n_jobs) +
                    " jobs, 2 boards");
  table.set_header({"policy", "served", "jobs/s", "p99 wait (ms)",
                    "hit rate", "full rcfg", "partial rcfg", "regions",
                    "reconfig (ms)", "partial (ms)", "makespan (ms)"});
  for (const ServeCell* c : {&n, &b, &bd, &d, &m}) {
    table.add_row({c->name, std::to_string(c->served),
                   util::Table::fmt(c->jobs_per_s, 0),
                   util::Table::fmt(c->p99_ms, 2),
                   util::Table::fmt(c->hit_rate, 2),
                   std::to_string(c->full_reconfigs),
                   std::to_string(c->partial_reconfigs),
                   std::to_string(c->regions_loaded),
                   util::Table::fmt(c->reconfig_ms, 1),
                   util::Table::fmt(c->partial_reconfig_ms, 1),
                   util::Table::fmt(c->makespan_ms, 1)});
  }
  table.print();

  const double speedup = n.jobs_per_s > 0 ? b.jobs_per_s / n.jobs_per_s : 0.0;
  const double diff_saving =
      bd.reconfig_ms > 0 ? b.reconfig_ms / bd.reconfig_ms : 0.0;
  std::printf("\nbatched+cache vs naive: %.1fx throughput\n", speedup);
  if (diff_on) {
    std::printf("region-diff loading vs full reconfiguration: "
                "%.1fx less reconfig time\n", diff_saving);
  }

  bench::expect(n.served == static_cast<std::uint64_t>(n_jobs) &&
                    b.served == static_cast<std::uint64_t>(n_jobs) &&
                    bd.served == static_cast<std::uint64_t>(n_jobs),
                "every policy serves the full stream");
  bench::expect(n.results_hash == b.results_hash &&
                    n.results_hash == bd.results_hash &&
                    n.results_hash == d.results_hash,
                "job results are bit-identical across every policy "
                "(ledger equality)");
  bench::expect(speedup >= 2.0,
                "batching + warm cache is at least 2x naive throughput");
  bench::expect(b.full_reconfigs < n.full_reconfigs,
                "batching amortizes full reconfigurations");
  bench::expect(b.hit_rate > 0.0,
                "revisiting a staged configuration hits the cache");
  bench::expect(d.served == static_cast<std::uint64_t>(n_jobs) &&
                    d.failed == 0 && d.dead_boards == 1,
                "a mid-stream board dropout is drained without losing jobs");
  bench::expect(m.served == static_cast<std::uint64_t>(n_jobs) &&
                    m.failed == 0 && m.migrated > 0,
                "total crate loss drains every job to the spare crate via "
                "migrate_job");
  bench::expect(m.func_hash == bd.func_hash,
                "migration preserves the functional ledger digest "
                "(no job lost or altered crossing crates)");
  bench::expect(b.p99_ms < n.p99_ms,
                "batching also cuts tail queue latency, not just throughput");
  if (diff_on) {
    bench::expect(bd.partial_reconfigs > 0,
                  "warm cache misses take the differential path");
    bench::expect(bd.regions_loaded > 0 &&
                      bd.regions_loaded < bd.partial_reconfigs * kRegions,
                  "differential loads move a strict subset of the frames");
    // The two cold full configurations (one per board) are paid by every
    // policy; with only a smoke-sized stream they dominate the total, so
    // the 2x bar only applies to the full run.
    if (!bench::smoke()) {
      bench::expect(bd.reconfig_ms * 2.0 <= b.reconfig_ms,
                    "region-diff loading at least halves total reconfig time");
    } else {
      bench::expect(bd.reconfig_ms < b.reconfig_ms,
                    "region-diff loading cuts total reconfig time");
    }
  }

  // --- instant warm start from a committed genesis snapshot ------------
  // Same idea as bench_m1's part 1.5, on the real mixed workload: the
  // first 12 jobs of the stream (fixed regardless of BENCH_SMOKE, so one
  // committed file serves both modes — the RNG hands out the same first
  // 12 order draws either way) are served cold once, with every TRT
  // histogram and image filter actually evaluated, and the resulting
  // warmed crate — staged bitstreams, filled caches, finished ledger —
  // is committed under bench/data/. Every later run seeds from the file
  // and reports the setup time both ways. Stale or missing files are
  // regenerated in place (the stream is deterministic, so staleness is
  // plain byte inequality).
  double warm_cold_us = 0.0, warm_seed_us = 0.0;
  bool warm_identical = false, warm_regenerated = false;
  std::size_t warm_genesis_bytes = 0;
  {
    constexpr int kWarmJobs = 12;
    const std::string warm_file = bench::data_path("warm_s1.snap");
    auto build_and_submit = [&](core::AtlantisSystem& sys)
        -> std::unique_ptr<serve::JobService> {
      sys.add_acb("acb0");
      sys.add_acb("acb1");
      auto service = std::make_unique<serve::JobService>(sys, batched_diff);
      for (const hw::Bitstream& bs : make_configs()) {
        service->register_config(bs);
      }
      std::size_t next_event = 0, next_tile = 0;
      for (int i = 0; i < kWarmJobs; ++i) {
        const util::Picoseconds arrival =
            static_cast<util::Picoseconds>(i) * 10 * util::kMicrosecond;
        if (w.order[static_cast<std::size_t>(i)] == 0) {
          const trt::Event& ev = events[next_event++ % events.size()];
          (void)service
              ->submit(trt::make_histogram_job(bank, ev, w.trt_cfg, "trigger",
                                               "trt_lut", arrival))
              .value_or_throw();
        } else {
          const imgproc::Gray8& tile = tiles[next_tile++ % tiles.size()];
          const bool edge = w.order[static_cast<std::size_t>(i)] == 2;
          (void)service
              ->submit(imgproc::make_filter_job(
                  tile, edge ? w.edge_kernel : w.blur_kernel, w.img_cfg,
                  edge ? "mosaic" : "imaging",
                  edge ? "img_edge" : "img_conv", arrival))
              .value_or_throw();
        }
      }
      return service;
    };

    core::AtlantisSystem cold_sys("crate");
    auto cold = build_and_submit(cold_sys);
    const auto cold_begin = std::chrono::steady_clock::now();
    cold->run();
    const auto cold_end = std::chrono::steady_clock::now();
    sim::SnapshotWriter ww;
    cold->save_state(ww);
    const std::vector<std::uint8_t> genesis = ww.bytes();
    warm_genesis_bytes = genesis.size();

    const auto committed = bench::load_snapshot_file(warm_file);
    if (!committed.has_value() || *committed != genesis) {
      warm_regenerated = true;
      if (!bench::save_snapshot_file(warm_file, genesis)) {
        std::printf("cannot write %s\n", warm_file.c_str());
        return 1;
      }
    }
    const auto file_bytes = bench::load_snapshot_file(warm_file);

    core::AtlantisSystem warm_sys("crate");
    auto warm = build_and_submit(warm_sys);
    const auto warm_begin = std::chrono::steady_clock::now();
    auto opened = sim::SnapshotReader::open(*file_bytes);
    if (!opened.ok()) {
      std::printf("warm snapshot reopen failed: %s\n",
                  opened.message().c_str());
      return 1;
    }
    warm->load_state(opened.value());
    const auto warm_end = std::chrono::steady_clock::now();

    warm_cold_us =
        std::chrono::duration<double, std::micro>(cold_end - cold_begin)
            .count();
    warm_seed_us =
        std::chrono::duration<double, std::micro>(warm_end - warm_begin)
            .count();
    warm_identical = hash_results(warm->jobs()) == hash_results(cold->jobs()) &&
                     warm->pending() == 0;

    util::Table wt("instant warm start: committed genesis snapshot vs "
                   "serving the first " + std::to_string(kWarmJobs) +
                   " jobs cold");
    wt.set_header({"metric", "value"});
    wt.add_row({"cold warm-up (us)", util::Table::fmt(warm_cold_us, 1)});
    wt.add_row({"warm seed from file (us)", util::Table::fmt(warm_seed_us, 1)});
    wt.add_row({"speedup",
                util::Table::fmt(warm_cold_us / warm_seed_us, 1) + "x"});
    wt.add_row({"genesis file",
                warm_regenerated ? "regenerated" : "committed"});
    wt.add_row({"warm ledger", warm_identical ? "bit-identical" : "DIVERGED"});
    wt.print();

    bench::expect(warm_identical,
                  "warm-seeded crate carries the exact cold ledger");
    if (!bench::smoke()) {
      bench::expect(warm_seed_us < warm_cold_us,
                    "seeding from the genesis file beats serving the "
                    "warm-up jobs cold");
    }
  }

  // --- artifact --------------------------------------------------------
  std::ofstream json("BENCH_serve.json");
  json << "{\n  \"jobs\": " << n_jobs
       << ",\n  \"differential\": " << (diff_on ? "true" : "false")
       << ",\n  \"speedup\": " << speedup
       << ",\n  \"diff_reconfig_saving\": " << diff_saving
       << ",\n  \"warm_start\": {\"jobs\": 12, \"cold_setup_us\": "
       << warm_cold_us << ", \"warm_setup_us\": " << warm_seed_us
       << ", \"genesis_bytes\": " << warm_genesis_bytes
       << ", \"regenerated\": " << (warm_regenerated ? "true" : "false")
       << ", \"identical\": " << (warm_identical ? "true" : "false") << "}"
       << ",\n  \"rows\": [";
  bool first = true;
  for (const ServeCell* c : {&n, &b, &bd, &d, &m}) {
    json << (first ? "" : ",") << "\n    {\"policy\": \"" << c->name
         << "\", \"served\": " << c->served << ", \"failed\": " << c->failed
         << ", \"jobs_per_s\": " << c->jobs_per_s
         << ", \"p50_queue_ms\": " << c->p50_ms
         << ", \"p99_queue_ms\": " << c->p99_ms
         << ", \"cache_hit_rate\": " << c->hit_rate
         << ", \"full_reconfigs\": " << c->full_reconfigs
         << ", \"partial_reconfigs\": " << c->partial_reconfigs
         << ", \"regions_loaded\": " << c->regions_loaded
         << ", \"reconfig_ms\": " << c->reconfig_ms
         << ", \"partial_reconfig_ms\": " << c->partial_reconfig_ms
         << ", \"makespan_ms\": " << c->makespan_ms
         << ", \"results_hash\": " << c->results_hash
         << ", \"func_hash\": " << c->func_hash
         << ", \"migrated\": " << c->migrated
         << ", \"dead_boards\": " << c->dead_boards << "}";
    first = false;
  }
  json << "\n  ]\n}\n";
  json.close();
  std::printf("\nwrote BENCH_serve.json\n");

  return bench::finish();
}
