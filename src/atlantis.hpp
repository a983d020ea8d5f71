// Umbrella header: the public API of the ATLANTIS reproduction.
//
//   #include "atlantis.hpp"
//
// pulls in every layer, bottom to top. Individual headers remain the
// preferred include for library code; this header serves examples and
// downstream quick starts.
//
// Which header do I include?
//
//   I want to...                          | include
//   --------------------------------------+---------------------------
//   serve jobs from many clients          | serve/jobservice.hpp
//   define a job / write an adapter       | serve/job.hpp
//   drive one board like the WinNT driver | core/driver.hpp
//   hardware task switching + the cache   | core/taskswitch.hpp
//   assemble a crate of boards            | core/system.hpp
//   run the power-on self test            | core/selftest.hpp
//   build / simulate a gate-level design  | chdl/builder.hpp, chdl/sim.hpp
//   model PCI / SDRAM / S-Link timing     | hw/pci.hpp, hw/sdram.hpp, ...
//   inspect the crate-wide schedule       | sim/timeline.hpp
//   inject faults, replay deterministically| sim/fault.hpp
//   Result<T> / ErrorCode error handling  | util/status.hpp
//   TRT / volren / imgproc / N-body       | trt/, volren/, imgproc/, nbody/
#pragma once

// Foundation: statuses, units, math, containers.
#include "util/bitops.hpp"
#include "util/cfloat.hpp"
#include "util/fnv.hpp"
#include "util/image.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/worker_pool.hpp"

// Simulation substrate: the crate timeline and the fault injector.
#include "sim/fault.hpp"
#include "sim/timeline.hpp"

// CHDL: design entry, simulation, analysis, export, verification.
#include "chdl/bitvec.hpp"
#include "chdl/builder.hpp"
#include "chdl/design.hpp"
#include "chdl/export.hpp"
#include "chdl/fsm.hpp"
#include "chdl/hostif.hpp"
#include "chdl/sim.hpp"
#include "chdl/stats.hpp"
#include "chdl/vcd.hpp"
#include "chdl/verify.hpp"

// Hardware substrate models.
#include "hw/clock.hpp"
#include "hw/fifo.hpp"
#include "hw/fpga.hpp"
#include "hw/hostcpu.hpp"
#include "hw/pci.hpp"
#include "hw/sdram.hpp"
#include "hw/slink.hpp"
#include "hw/sram.hpp"

// The ATLANTIS machine: boards, crate, driver, task switching.
#include "core/aab.hpp"
#include "core/acb.hpp"
#include "core/aib.hpp"
#include "core/configcache.hpp"
#include "core/driver.hpp"
#include "core/memmodule.hpp"
#include "core/selftest.hpp"
#include "core/system.hpp"
#include "core/taskswitch.hpp"

// Serving layer: multi-tenant batch scheduling over the crate.
#include "serve/job.hpp"
#include "serve/jobservice.hpp"
#include "serve/queue.hpp"

// Applications (TRT and image processing ship a serve_adapter.hpp job
// factory).
#include "imgproc/conv_core.hpp"
#include "imgproc/filters.hpp"
#include "imgproc/hwmodel.hpp"
#include "imgproc/serve_adapter.hpp"
#include "imgproc/sobel_core.hpp"
#include "nbody/force.hpp"
#include "nbody/integrator.hpp"
#include "nbody/plummer.hpp"
#include "trt/hwmodel.hpp"
#include "trt/multiboard.hpp"
#include "trt/serve_adapter.hpp"
#include "trt/slink_frontend.hpp"
#include "trt/trt_core.hpp"
#include "volren/interp_core.hpp"
#include "volren/renderer.hpp"
