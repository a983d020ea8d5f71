// Quickstart: the CHDL workflow in one file.
//
// 1. Describe hardware as ordinary C++ (a pulse counter with a host
//    register file).
// 2. Simulate it by just *using* it — the same code that would drive the
//    real board drives the simulator; no test bench is written.
// 3. Check the resource footprint against a real device budget and
//    "configure" it onto a simulated ORCA 3T125.
// 4. Serve it: hand the design to the crate's JobService and let two
//    tenants stream jobs at it.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "chdl/builder.hpp"
#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "chdl/stats.hpp"
#include "chdl/vcd.hpp"
#include "core/system.hpp"
#include "hw/fpga.hpp"
#include "serve/jobservice.hpp"
#include "util/stats.hpp"

using namespace atlantis;

// --- Step 1: design entry ---------------------------------------------
// A C++ function that *generates structure*: an event counter with a
// programmable divider, exposed through the standard host register map.
chdl::Design make_pulse_counter() {
  chdl::Design d("pulse_counter");
  chdl::HostRegFile host(d);

  // Host-programmable divider: one carry pulse every (div+1) events.
  const chdl::Wire div = host.write_reg("divider", /*addr=*/1, /*width=*/16);
  const chdl::Wire pulse = host.write_strobe(/*addr=*/2);

  // Prescaler counts pulses and wraps at the divider value.
  chdl::RegOpts popts;
  popts.enable = pulse;
  const chdl::Wire pre = d.reg_forward("prescaler", 16, popts);
  const chdl::Wire wrap = d.eq(pre, div);
  d.reg_connect(pre, d.mux(wrap, d.constant(16, 0),
                           d.add(pre, d.constant(16, 1))));

  // Main counter advances on every wrap.
  const chdl::Wire events =
      chdl::counter(d, "events", 32, d.band(pulse, wrap));
  host.map_read(/*addr=*/3, events);
  host.finish();
  return d;
}

int main() {
  // --- Step 2: the application IS the test bench ---------------------
  chdl::Design design = make_pulse_counter();
  chdl::Simulator sim(design);
  chdl::VcdWriter vcd(sim, "quickstart.vcd");  // waveforms, free of charge
  chdl::HostInterface host(sim);

  host.write(1, 3);  // divide by 4
  for (int i = 0; i < 42; ++i) host.write(2, 0);
  std::printf("pushed 42 pulses at divider 4 -> events register = %llu\n",
              static_cast<unsigned long long>(host.read(3)));
  std::printf("simulated %llu design clocks\n",
              static_cast<unsigned long long>(sim.cycles()));

  // --- Step 3: does it fit the silicon? -------------------------------
  const chdl::NetlistStats stats = chdl::analyze(design);
  std::printf("%s\n", stats.to_string().c_str());
  hw::FpgaDevice orca("acb0/fpga0", hw::orca_3t125());
  const util::Picoseconds t =
      orca.configure(hw::Bitstream::from_design(design));
  std::printf("configured onto %s in %.2f ms (bitstream model)\n",
              orca.family().name.c_str(), util::ps_to_ms(t));

  // --- Step 4: serve it ------------------------------------------------
  // The JobService is the front door for production use: tenants submit
  // jobs, the scheduler batches per configuration, the bitstream cache
  // amortizes reconfiguration across the mix.
  core::AtlantisSystem sys("crate");
  sys.add_acb("acb0");
  serve::JobService service(sys);
  service.register_config(hw::Bitstream::from_design(design));
  for (int i = 0; i < 8; ++i) {
    serve::JobSpec job;
    job.tenant = (i % 2 == 0) ? "alice" : "bob";
    job.config = design.name();
    job.work = [] {
      serve::JobOutcome out;
      out.compute_time = util::kMicrosecond;  // 1 us of design clocks
      out.dma_in_bytes = 4096;
      out.dma_out_bytes = 64;
      return out;
    };
    (void)service.submit(std::move(job)).value();
  }
  const serve::ServiceReport& rep = service.run();
  std::printf("served %llu jobs (%llu full reconfigs) -> %.0f jobs/s\n",
              static_cast<unsigned long long>(rep.served),
              static_cast<unsigned long long>(rep.switching.full_reconfigs()),
              static_cast<double>(rep.served) /
                  (static_cast<double>(rep.makespan) / 1e12));
  // Per-tenant queue waits come from the ledger.
  std::map<std::string, std::vector<double>> waits;
  for (const serve::JobRecord& rec : service.jobs()) {
    waits[rec.tenant].push_back(static_cast<double>(rec.queue_wait()));
  }
  for (const auto& [tenant, w] : waits) {
    std::printf("  tenant %-5s: %zu jobs, p99 queue wait %.2f us\n",
                tenant.c_str(), w.size(), util::percentile(w, 0.99) / 1e6);
  }
  std::printf("waveforms written to quickstart.vcd\n");
  return 0;
}
