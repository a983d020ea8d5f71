// crate_supervised: one 2-board crate, a JobService under a Supervisor at
// the default checkpoint cadence, and a light FaultPlan (seeded DMA stalls
// and configuration SEUs, three service crashes, so restore-and-replay
// runs). Jobs are a mixed-tenant stream of real TRT histogram events and
// blur/edge image tiles over three region-signed configurations.
//
// Host time goes to whole-service checkpoints, which grow with history,
// and to the application functors on the shared pool. The whole stream
// is submitted before the supervised drain: submitting between
// Supervisor::run() calls can restore a checkpoint taken in an earlier
// run and fail with a StateError (see NOTES.md).
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"
#include "imgproc/serve_adapter.hpp"
#include "serve/supervisor.hpp"
#include "serve_stats.hpp"
#include "sim/fault.hpp"
#include "trace.hpp"
#include "trt/events.hpp"
#include "trt/serve_adapter.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace perfbench {
namespace {

using namespace atlantis;

constexpr int kJobs = 6000;
constexpr int kInputs = 64;  // distinct events and tiles per kind
constexpr int kTileMin = 24;
constexpr int kTileMax = 40;
constexpr int kRegions = 32;
constexpr double kOfferedRps = 3000.0;
const char* const kConfigNames[3] = {"trt_lut", "img_blur", "img_edge"};
const char* const kTenants[4] = {"atlas", "cms", "lhcb", "imaging"};

enum Kind { kTrt = 0, kBlur = 1, kEdge = 2 };

struct JobPlan {
  Kind kind = kTrt;
  int tenant = 0;
  int input = 0;
  util::Picoseconds arrival = 0;
  util::Picoseconds deadline = 0;
};

class CrateSupervised : public Workload {
 public:
  explicit CrateSupervised(std::uint64_t seed) : bank_(geometry(), 256) {
    trt::EventGenerator gen(bank_, trt::EventParams{}, seed ^ 0x7472747472747274ull);
    util::Rng rng(seed);
    for (int i = 0; i < kInputs; ++i) {
      events_.push_back(gen.generate());
      // Tile sizes vary, so image service times do too.
      const int w = kTileMin + static_cast<int>(rng.next_below(kTileMax - kTileMin + 1));
      const int h = kTileMin + static_cast<int>(rng.next_below(kTileMax - kTileMin + 1));
      imgproc::Gray8 tile(w, h);
      for (auto& px : tile.data()) px = static_cast<std::uint8_t>(rng.next_below(256));
      tiles_.push_back(std::move(tile));
    }
    // One expected digest per distinct input, from the references.
    for (const trt::Event& ev : events_) {
      expected_[kTrt].push_back(serve::digest(trt::histogram_reference(bank_, ev).histogram.counts));
    }
    for (const imgproc::Gray8& tile : tiles_) {
      expected_[kBlur].push_back(serve::digest(imgproc::convolve3x3(tile, kernel(kBlur)).data()));
      expected_[kEdge].push_back(serve::digest(imgproc::convolve3x3(tile, kernel(kEdge)).data()));
    }
    // A fixed mix — half TRT events, a quarter each blur and edge tiles,
    // tenants evenly spread — in a seed-shuffled order. With the whole
    // stream queued up front the scheduler drains configurations in
    // queue-depth order, so a fixed mix keeps that order (and the
    // latency tail it sets) the same for every seed.
    plan_.resize(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      plan_[i].kind = i % 4 < 2 ? kTrt : (i % 4 == 2 ? kBlur : kEdge);
      plan_[i].tenant = (i / 4) % 4;
    }
    for (int i = kJobs - 1; i > 0; --i) {
      std::swap(plan_[i], plan_[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    const double mean_gap_ps = static_cast<double>(util::kSecond) / kOfferedRps;
    double clock = 0.0;
    for (int i = 0; i < kJobs; ++i) {
      JobPlan& p = plan_[i];
      p.input = static_cast<int>(rng.next_below(kInputs));
      clock += -mean_gap_ps * std::log(rng.uniform(1e-12, 1.0));
      p.arrival = static_cast<util::Picoseconds>(clock);
      if (i % 3 == 0) p.deadline = p.arrival + 5 * util::kMillisecond;
    }
    // Three configurations over one base: the image filters differ only
    // in their coefficient pages, the TRT LUT in a wide window.
    const auto base = hw::make_region_signatures("crate_base", kRegions);
    for (int c = 0; c < 3; ++c) {
      hw::Bitstream bs;
      bs.name = kConfigNames[c];
      bs.region_sigs = base;
      const int from = c == kTrt ? 0 : 20 + 4 * c;
      hw::stamp_regions(bs.region_sigs, bs.name, from, from + (c == kTrt ? 16 : 4));
      configs_.push_back(std::move(bs));
    }
    // DMA stalls and configuration SEUs are drawn from the seed. The
    // three service crashes are pinned to fixed supervision ticks: a
    // drawn crash count (1-4 per pass) moved host time and peak memory
    // by more than the inputs do.
    faults_.seed = seed ^ 0x6661756c74ull;
    faults_.with_rate(sim::FaultKind::kDmaStall, 0.002)
        .with_rate(sim::FaultKind::kSeuConfig, 0.02);
    for (const std::uint64_t tick : {100, 200, 300}) {
      faults_.inject(sim::FaultKind::kServiceCrash, "serve/crate", tick);
    }
  }

  Pass run_pass(Tracer* tracer) override {
    Pass pass;
    const std::unique_ptr<Crate> built = repeated_setup(
        [&] { return std::make_unique<Crate>(faults_, configs_); }, pass.setup_s);
    Crate& crate = *built;
    serve::Supervisor& supervisor = *crate.supervisor;

    util::WorkerPool::shared().reset_worker_stats();
    std::vector<double> tick_us;
    std::vector<bool> tick_checkpointed;
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      serve::JobSpec spec = make_spec(plan_[i]);
      if (tracer != nullptr) {
        spec.work = traced_work(tracer, plan_[i].kind == kTrt ? "trt.work" : "imgproc.work",
                                i + 1, std::move(spec.work));
      }
      Scope span(tracer, "serve.service.submit", i + 1);
      (void)crate.service->submit(std::move(spec)).value_or_throw();
    }
    if (tracer == nullptr) {
      supervisor.run();
    } else {
      // Exactly the tick sequence run() issues, one span per tick; run()
      // then only settles the ledger and the availability figures.
      while (crate.service->pending() > 0 || crate.service->has_active_jobs()) {
        const std::uint64_t before = supervisor.report().checkpoints;
        const Clock::time_point ts = Clock::now();
        {
          Scope span(tracer, "serve.supervisor.tick");
          supervisor.tick();
        }
        tick_us.push_back(seconds_since(ts) * 1e6);
        tick_checkpointed.push_back(supervisor.report().checkpoints != before);
      }
      Scope span(tracer, "serve.supervisor.run");
      supervisor.run();
    }
    pass.work_s = seconds_since(t1);
    add_pool_stats(pass.host, pass.work_s);

    std::vector<std::uint8_t> snapshot;
    {
      Scope span(tracer, "sim.snapshot.save");
      pass.save_ms = timed_saves(*crate.service, snapshot);
    }
    pass.model["snapshot_mb"] = {static_cast<double>(snapshot.size()) / 1e6, "MB"};

    LedgerSummary ledger;
    std::uint64_t deadline_submitted = 0;
    for (const serve::JobRecord& rec : crate.service->jobs()) {
      const JobPlan& p = plan_.at(rec.id);
      deadline_submitted += p.deadline > 0 ? 1 : 0;
      ledger.add(rec);
      if (rec.error != util::ErrorCode::kOk ||
          rec.outcome.checksum != expected_[p.kind].at(static_cast<std::size_t>(p.input))) {
        ++pass.failed_checks;
      }
    }
    pass.submitted = plan_.size();
    pass.served = ledger.served;
    add_model_metrics(pass, std::move(ledger), pass.submitted, deadline_submitted);
    add_service_counts(pass.counts, {crate.service.get()});

    const serve::SupervisorReport& rep = supervisor.report();
    pass.counts["serve.supervisor.ticks"] = {static_cast<double>(rep.ticks), "count"};
    pass.counts["serve.supervisor.checkpoints"] = {static_cast<double>(rep.checkpoints), "count"};
    pass.counts["serve.supervisor.restores"] = {static_cast<double>(rep.restores), "count"};
    pass.counts["serve.supervisor.crashes"] = {static_cast<double>(rep.crashes), "count"};
    pass.counts["sim.fault.events"] = {static_cast<double>(crate.injector.log().size()), "count"};
    pass.counts["sim.snapshot.bytes_per_job"] = {
        static_cast<double>(snapshot.size()) / static_cast<double>(plan_.size()), "B"};

    Fnv digest;
    mix_ledger(digest, *crate.service);
    for (const std::uint64_t v : {rep.ticks, rep.checkpoints, rep.crashes, rep.restores}) {
      digest.mix(v);
    }
    pass.model_digest = digest.h;

    if (tracer != nullptr) {
      // Restore: open the saved stream and load it into a twin service
      // with the same construction and submissions; the twin's ledger
      // must equal the original's.
      Crate twin(faults_, configs_);
      for (const JobPlan& p : plan_) (void)twin.service->submit(make_spec(p)).value_or_throw();
      {
        Scope span(tracer, "sim.snapshot.restore");
        util::Result<sim::SnapshotReader> reader = sim::SnapshotReader::open(std::move(snapshot));
        if (!reader.ok()) {
          ++pass.failed_checks;
        } else {
          twin.service->load_state(reader.value());
        }
      }
      Fnv twin_digest;
      mix_ledger(twin_digest, *twin.service);
      Fnv own_digest;
      mix_ledger(own_digest, *crate.service);
      if (twin_digest.h != own_digest.h) ++pass.failed_checks;

      std::vector<double> sorted = tick_us;
      std::sort(sorted.begin(), sorted.end());
      std::vector<double> plain;
      double checkpoint_us = 0.0;
      std::uint64_t checkpoint_ticks = 0;
      for (std::size_t i = 0; i < tick_us.size(); ++i) {
        if (tick_checkpointed[i]) {
          checkpoint_us += tick_us[i];
          ++checkpoint_ticks;
        } else {
          plain.push_back(tick_us[i]);
        }
      }
      checkpoint_us -= static_cast<double>(checkpoint_ticks) * median(plain);
      pass.host["serve.supervisor.tick_us_p50"] = {quantile_sorted(sorted, 0.50), "us"};
      pass.host["serve.supervisor.tick_us_p99"] = {quantile_sorted(sorted, 0.99), "us"};
      pass.host["serve.supervisor.checkpoint_ms"] = {checkpoint_us * 1e-3, "ms"};
      pass.host["sim.snapshot.restore_ms"] = {tracer->total_ms("sim.snapshot.restore"), "ms"};
      for (const char* name : {"trt.work", "imgproc.work"}) {
        const std::uint64_t n = tracer->count(name);
        pass.host[std::string(name) + "_us"] = {
            n == 0 ? 0.0 : tracer->total_ms(name) * 1e3 / static_cast<double>(n), "us"};
      }
    }
    return pass;
  }

 private:
  /// The crate under test: injector, system, service and supervisor,
  /// built in the order their references require.
  struct Crate {
    Crate(const sim::FaultPlan& plan, const std::vector<hw::Bitstream>& configs)
        : injector(plan), system(core::assemble_crate("crate", 2)) {
      system->set_fault_injector(&injector);
      service = std::make_unique<serve::JobService>(*system);
      for (const hw::Bitstream& bs : configs) service->register_config(bs);
      supervisor = std::make_unique<serve::Supervisor>(*service);
    }
    ~Crate() {
      supervisor.reset();
      service.reset();
      system->set_fault_injector(nullptr);
    }
    Crate(const Crate&) = delete;
    Crate& operator=(const Crate&) = delete;

    sim::FaultInjector injector;
    std::unique_ptr<core::AtlantisSystem> system;
    std::unique_ptr<serve::JobService> service;
    std::unique_ptr<serve::Supervisor> supervisor;
  };

  static trt::DetectorGeometry geometry() {
    trt::DetectorGeometry geo;
    geo.layers = 16;
    geo.straws_per_layer = 64;
    return geo;
  }

  /// Hit-list mode: the LUT scan pushes only hit straws, so an event's
  /// modelled cost follows its occupancy.
  static trt::TrtHwConfig trt_config() {
    trt::TrtHwConfig cfg;
    cfg.stream_all_straws = false;
    return cfg;
  }

  static imgproc::Kernel3x3 kernel(Kind kind) {
    return kind == kBlur ? imgproc::Kernel3x3::gaussian() : imgproc::Kernel3x3::sobel_x();
  }

  serve::JobSpec make_spec(const JobPlan& p) const {
    serve::JobSpec spec =
        p.kind == kTrt
            ? trt::make_histogram_job(bank_, events_.at(static_cast<std::size_t>(p.input)),
                                      trt_config(), kTenants[p.tenant],
                                      kConfigNames[kTrt], p.arrival)
            : imgproc::make_filter_job(tiles_.at(static_cast<std::size_t>(p.input)),
                                       kernel(p.kind), imgproc::ImgHwConfig{},
                                       kTenants[p.tenant], kConfigNames[p.kind], p.arrival);
    spec.deadline = p.deadline;
    return spec;
  }

  trt::PatternBank bank_;
  std::vector<trt::Event> events_;
  std::vector<imgproc::Gray8> tiles_;
  std::vector<std::uint64_t> expected_[3];
  std::vector<JobPlan> plan_;
  std::vector<hw::Bitstream> configs_;
  sim::FaultPlan faults_;
};

}  // namespace

std::unique_ptr<Workload> make_crate_supervised(std::uint64_t seed) {
  return std::make_unique<CrateSupervised>(seed);
}

}  // namespace perfbench
