// gate_trt / gate_conv: gate-level CHDL designs simulated by the
// application itself, served as jobs.
//
// Each job drives one input through a chdl::Simulator built with the
// production FpgaDevice::default_sim_options() via chdl::HostInterface —
// register writes, idle cycles and a readback — and returns the readback
// digest plus the simulated cycles as its modelled compute time. Jobs go
// through a one-crate JobService on the shared pool, so host time is
// almost all in chdl: the serving layers do microseconds of work per job
// of milliseconds of simulation.
//
//   gate_trt   the TRT histogrammer core (16 x 64 straws, 256 patterns)
//              driven sparsely, one straw push per ~64 cycles, then the
//              FSM readout scan. kAuto resolves to the threaded engine.
//   gate_conv  the 3x3 convolution core streaming one pixel per clock.
//              kAuto resolves to the event-driven engine.
#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "common.hpp"
#include "core/system.hpp"
#include "hw/fpga.hpp"
#include "imgproc/conv_core.hpp"
#include "serve/jobservice.hpp"
#include "serve_stats.hpp"
#include "trace.hpp"
#include "trt/events.hpp"
#include "trt/histogram.hpp"
#include "trt/trt_core.hpp"
#include "util/rng.hpp"
#include "util/worker_pool.hpp"

namespace perfbench {
namespace {

using namespace atlantis;

constexpr util::Picoseconds kCyclePs = 25'000;  // 40 MHz design clock
constexpr int kInputs = 32;
/// Arrivals start once the first full configuration load (18.75 ms on
/// the ORCA part) is done, so the sojourn figures describe the steady
/// state rather than that one-off backlog.
constexpr util::Picoseconds kFirstArrival = 20 * util::kMillisecond;

/// Simulators shared by concurrently evaluated jobs: a job checks one
/// out, drives it and returns it. Every job starts from the design's
/// clear/reset register, so which simulator serves a job does not show
/// in its result (the readback check would catch it).
class SimPool {
 public:
  void add(std::unique_ptr<chdl::Simulator> sim) { free_.push_back(std::move(sim)); }

  std::unique_ptr<chdl::Simulator> acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<chdl::Simulator> sim = std::move(free_.back());
    free_.pop_back();
    return sim;
  }
  void release(std::unique_ptr<chdl::Simulator> sim, const chdl::SimActivity& delta) {
    std::lock_guard<std::mutex> lock(mutex_);
    activity_.comp_evals += delta.comp_evals;
    activity_.comp_changes += delta.comp_changes;
    activity_.edges += delta.edges;
    free_.push_back(std::move(sim));
  }
  chdl::SimActivity activity() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return activity_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<chdl::Simulator>> free_;  // guarded by mutex_
  chdl::SimActivity activity_;                          // guarded by mutex_
};

/// What a design-specific driver reports for one job.
struct DriveResult {
  std::uint64_t checksum = 0;
  std::uint64_t dma_in_bytes = 0;
  std::uint64_t dma_out_bytes = 0;
};

class GateSim : public Workload {
 public:
  /// `job_span` names the traced work-functor span (a literal: spans
  /// outlive the pass).
  GateSim(std::string design, const char* job_span, int jobs, util::Picoseconds period)
      : design_name_(std::move(design)), job_span_(job_span), jobs_(jobs), period_(period) {}

  Pass run_pass(Tracer* tracer) override {
    Pass pass;
    const std::string prefix = "chdl." + design_name_;
    const std::unique_ptr<Rig> rig = repeated_setup([&] { return make_rig(); }, pass.setup_s);
    SimPool& sims = rig->sims;
    serve::JobService& service = *rig->service;

    util::WorkerPool::shared().reset_worker_stats();
    const Clock::time_point t1 = Clock::now();
    std::uint64_t deadline_submitted = 0;
    for (int i = 0; i < jobs_; ++i) {
      serve::JobSpec spec;
      spec.tenant = "trigger";
      spec.kind = serve::JobKind::kCustom;
      spec.config = design_name_;
      spec.arrival = kFirstArrival + static_cast<util::Picoseconds>(i) * period_;
      if (i % 3 == 0) {
        spec.deadline = spec.arrival + 4 * period_;
        ++deadline_submitted;
      }
      const int input = input_of(i);
      auto work = [this, &sims, input] {
        std::unique_ptr<chdl::Simulator> sim = sims.acquire();
        const std::uint64_t c0 = sim->cycles();
        const chdl::SimActivity a0 = sim->activity();
        chdl::HostInterface host(*sim);
        const DriveResult r = drive(host, input);
        serve::JobOutcome out;
        out.checksum = r.checksum;
        out.compute_time = static_cast<util::Picoseconds>(sim->cycles() - c0) * kCyclePs;
        out.dma_in_bytes = r.dma_in_bytes;
        out.dma_out_bytes = r.dma_out_bytes;
        const chdl::SimActivity& a1 = sim->activity();
        sims.release(std::move(sim), {a1.comp_evals - a0.comp_evals,
                                      a1.comp_changes - a0.comp_changes, a1.edges - a0.edges});
        return out;
      };
      if (tracer != nullptr) {
        spec.work = traced_work(tracer, job_span_, static_cast<std::uint64_t>(i) + 1,
                                std::move(work));
      } else {
        spec.work = std::move(work);
      }
      Scope span(tracer, "serve.service.submit", static_cast<std::uint64_t>(i) + 1);
      (void)service.submit(std::move(spec)).value_or_throw();
    }
    {
      Scope span(tracer, "serve.service.run");
      service.run();
    }
    pass.work_s = seconds_since(t1);
    add_pool_stats(pass.host, pass.work_s);

    std::vector<std::uint8_t> snapshot;
    {
      Scope span(tracer, "sim.snapshot.save");
      pass.save_ms = timed_saves(service, snapshot);
    }
    pass.model["snapshot_mb"] = {static_cast<double>(snapshot.size()) / 1e6, "MB"};

    LedgerSummary ledger;
    std::uint64_t cycles = 0;
    for (const serve::JobRecord& rec : service.jobs()) {
      ledger.add(rec);
      cycles += static_cast<std::uint64_t>(rec.outcome.compute_time / kCyclePs);
      if (rec.error != util::ErrorCode::kOk ||
          rec.outcome.checksum != expected_.at(static_cast<std::size_t>(input_of(
                                      static_cast<int>(rec.id))))) {
        ++pass.failed_checks;
      }
    }
    pass.submitted = static_cast<std::uint64_t>(jobs_);
    pass.served = ledger.served;
    add_model_metrics(pass, std::move(ledger), pass.submitted, deadline_submitted);
    add_service_counts(pass.counts, {&service});
    pass.counts[prefix + ".tape_ops"] = {static_cast<double>(rig->tape_ops), "count"};
    pass.counts[prefix + ".cycles"] = {static_cast<double>(cycles), "count"};
    pass.counts["sim.snapshot.bytes_per_job"] = {
        static_cast<double>(snapshot.size()) / static_cast<double>(jobs_), "B"};
    Fnv digest;
    mix_ledger(digest, service);
    pass.model_digest = digest.h;

    const chdl::SimActivity act = sims.activity();
    pass.host[prefix + ".setup_ms"] = {rig->construct_ms, "ms"};
    pass.host[prefix + ".evals_per_cycle"] = {
        act.edges == 0 ? 0.0
                       : static_cast<double>(act.comp_evals) / static_cast<double>(act.edges),
        "count"};
    pass.host[prefix + ".changes_per_eval"] = {
        act.comp_evals == 0
            ? 0.0
            : static_cast<double>(act.comp_changes) / static_cast<double>(act.comp_evals),
        "ratio"};
    if (tracer != nullptr) {
      const double job_s = tracer->total_ms(job_span_) * 1e-3;
      pass.host[prefix + ".cycles_per_s"] = {
          job_s > 0 ? static_cast<double>(cycles) / job_s : 0.0, "1/s"};
      pass.host[prefix + ".job_us"] = {
          tracer->total_ms(job_span_) * 1e3 / static_cast<double>(jobs_), "us"};
    }
    return pass;
  }

 protected:
  /// Everything a pass builds before serving: the elaborated design, one
  /// simulator per pool worker, and a one-crate service with the design's
  /// configuration registered.
  struct Rig {
    explicit Rig(const std::string& name) : design(name) {}
    chdl::Design design;
    SimPool sims;
    std::unique_ptr<core::AtlantisSystem> system;
    std::unique_ptr<serve::JobService> service;
    double construct_ms = 0.0;  // median simulator construction
    std::size_t tape_ops = 0;
  };

  std::unique_ptr<Rig> make_rig() const {
    auto rig = std::make_unique<Rig>(design_name_);
    build(rig->design);
    std::vector<double> construct_ms;
    for (int i = 0; i < util::WorkerPool::shared().size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      auto sim = std::make_unique<chdl::Simulator>(rig->design,
                                                   hw::FpgaDevice::default_sim_options());
      construct_ms.push_back(seconds_since(t0) * 1e3);
      rig->tape_ops = sim->tape_ops();
      rig->sims.add(std::move(sim));
    }
    rig->construct_ms = median(construct_ms);
    rig->system = core::assemble_crate("gate", 2);
    rig->service = std::make_unique<serve::JobService>(*rig->system);
    hw::Bitstream bs;
    bs.name = design_name_;
    bs.region_sigs = hw::make_region_signatures(design_name_, 32);
    rig->service->register_config(bs);
    return rig;
  }

  /// Elaborates the design into `design`.
  virtual void build(chdl::Design& design) const = 0;
  /// Drives input `input` through a fresh job on `host`.
  virtual DriveResult drive(chdl::HostInterface& host, int input) const = 0;

  int input_of(int job) const { return static_cast<int>(order_.at(static_cast<std::size_t>(job))); }

  /// Seed-drawn input order and per-input expected digests; filled by
  /// the subclass constructors.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint64_t> expected_;

  void draw_order(util::Rng& rng) {
    for (int i = 0; i < jobs_; ++i) order_.push_back(static_cast<std::uint32_t>(rng.next_below(kInputs)));
  }

 private:
  std::string design_name_;
  const char* job_span_;
  int jobs_;
  util::Picoseconds period_;
};

// --- TRT histogrammer --------------------------------------------------------

trt::DetectorGeometry trt_geometry() {
  trt::DetectorGeometry geo;
  geo.layers = 16;
  geo.straws_per_layer = 64;
  return geo;
}

class GateTrt : public GateSim {
 public:
  /// Sparse drive: after each straw push the bus idles 48-79 cycles
  /// (drawn from the straw id), one push per ~64 cycles on average, so
  /// job lengths vary by single cycles rather than in 64-cycle steps.
  static int idle_after(std::int32_t straw) {
    return 48 + static_cast<int>((static_cast<std::uint32_t>(straw) * 2654435761u) >> 27);
  }

  explicit GateTrt(std::uint64_t seed)
      : GateSim("trt", "chdl.trt.job", 1024, 600 * util::kMicrosecond), bank_(trt_geometry(), 256) {
    trt::EventGenerator gen(bank_, trt::EventParams{}, seed ^ 0x6761746574727400ull);
    for (int i = 0; i < kInputs; ++i) {
      events_.push_back(gen.generate());
      expected_.push_back(serve::digest(trt::histogram_reference(bank_, events_.back()).histogram.counts));
    }
    util::Rng rng(seed);
    draw_order(rng);
  }

 protected:
  void build(chdl::Design& design) const override { trt::build_trt_core(design, bank_); }

  DriveResult drive(chdl::HostInterface& host, int input) const override {
    const trt::Event& ev = events_.at(static_cast<std::size_t>(input));
    host.write(0x00, 0);  // clear counters
    for (const std::int32_t straw : ev.hits) {
      host.write(0x01, static_cast<std::uint64_t>(straw));
      host.idle(idle_after(straw));
    }
    host.idle(2);         // drain the increment pipeline
    host.write(0x05, 0);  // start the FSM readout scan
    std::vector<std::uint16_t> counts;
    counts.reserve(static_cast<std::size_t>(bank_.pattern_count()));
    for (int p = 0; p < bank_.pattern_count(); ++p) {
      counts.push_back(static_cast<std::uint16_t>(host.read(0x06)));
      host.idle(1);
    }
    DriveResult r;
    r.checksum = serve::digest(counts);
    r.dma_in_bytes = 4 * ev.hits.size();
    r.dma_out_bytes = 2 * counts.size();
    return r;
  }

 private:
  trt::PatternBank bank_;
  std::vector<trt::Event> events_;
};

// --- 3x3 convolution -----------------------------------------------------------

class GateConv : public GateSim {
 public:
  static constexpr int kWidth = 64;  // the core is built for one row width
  static constexpr int kMinHeight = 24;
  static constexpr int kMaxHeight = 40;
  static constexpr int kFlush = 4;

  explicit GateConv(std::uint64_t seed)
      : GateSim("conv", "chdl.conv.job", 1024, 240 * util::kMicrosecond) {
    util::Rng rng(seed);
    for (int i = 0; i < kInputs; ++i) {
      // Tile heights vary, so job cycle counts (and sojourns) do too.
      const int height =
          kMinHeight + static_cast<int>(rng.next_below(kMaxHeight - kMinHeight + 1));
      imgproc::Gray8 tile(kWidth, height);
      for (auto& px : tile.data()) px = static_cast<std::uint8_t>(rng.next_below(256));
      padded_.push_back(pad(tile));
      expected_.push_back(serve::digest(imgproc::convolve3x3(tile, kernel()).data()));
      tiles_.push_back(std::move(tile));
    }
    draw_order(rng);
    calibrate();
  }

 protected:
  void build(chdl::Design& design) const override {
    imgproc::build_conv_core(design, kWidth + 2, kernel());
  }

  DriveResult drive(chdl::HostInterface& host, int input) const override {
    const std::vector<std::uint8_t> outputs =
        stream(host, padded_.at(static_cast<std::size_t>(input)));
    imgproc::Gray8 out = extract(outputs, offset_, tiles_.at(static_cast<std::size_t>(input)).height());
    DriveResult r;
    r.checksum = serve::digest(out.data());
    r.dma_in_bytes = padded_.at(static_cast<std::size_t>(input)).data().size();
    r.dma_out_bytes = out.data().size();
    return r;
  }

 private:
  static imgproc::Kernel3x3 kernel() { return imgproc::Kernel3x3::gaussian(); }

  static imgproc::Gray8 pad(const imgproc::Gray8& img) {
    imgproc::Gray8 out(img.width() + 2, img.height() + 2);
    for (int y = 0; y < out.height(); ++y) {
      for (int x = 0; x < out.width(); ++x) out(x, y) = img.clamped(x - 1, y - 1);
    }
    return out;
  }

  /// Streams one padded tile, one pixel per clock, sampling the output
  /// register after every push; a few flush pushes drain the pipeline.
  static std::vector<std::uint8_t> stream(chdl::HostInterface& host,
                                          const imgproc::Gray8& padded) {
    host.write(0x00, 0);  // reset the stream state
    std::vector<std::uint8_t> outputs;
    outputs.reserve(padded.data().size() + kFlush);
    for (const std::uint8_t px : padded.data()) {
      host.write(0x01, px);
      outputs.push_back(static_cast<std::uint8_t>(host.read(0x02)));
    }
    for (int i = 0; i < kFlush; ++i) {
      host.write(0x01, 0);
      outputs.push_back(static_cast<std::uint8_t>(host.read(0x02)));
    }
    return outputs;
  }

  /// The interior outputs, aligned by the engine's fixed latency.
  static imgproc::Gray8 extract(const std::vector<std::uint8_t>& outputs, int offset,
                                int height) {
    imgproc::Gray8 out(kWidth, height);
    const int w = kWidth + 2;
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < kWidth; ++x) {
        const std::size_t idx = static_cast<std::size_t>((y + 1) * w + (x + 1) + offset);
        out(x, y) = idx < outputs.size() ? outputs[idx] : 0;
      }
    }
    return out;
  }

  /// Finds the pipeline latency once, on the first tile; a wrong offset
  /// fails every readback check.
  void calibrate() {
    chdl::Design design("conv");
    build(design);
    chdl::Simulator sim(design, hw::FpgaDevice::default_sim_options());
    chdl::HostInterface host(sim);
    const std::vector<std::uint8_t> outputs = stream(host, padded_.front());
    const imgproc::Gray8 ref = imgproc::convolve3x3(tiles_.front(), kernel());
    for (int offset = 0; offset < 4 * (kWidth + 2); ++offset) {
      if (extract(outputs, offset, ref.height()) == ref) {
        offset_ = offset;
        return;
      }
    }
  }

  std::vector<imgproc::Gray8> tiles_;
  std::vector<imgproc::Gray8> padded_;
  int offset_ = -1;
};

}  // namespace

std::unique_ptr<Workload> make_gate_trt(std::uint64_t seed) {
  return std::make_unique<GateTrt>(seed);
}

std::unique_ptr<Workload> make_gate_conv(std::uint64_t seed) {
  return std::make_unique<GateConv>(seed);
}

}  // namespace perfbench
