// perfbench: one workload of the repository's benchmark, on both clocks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Generates the workload's inputs from the seed, then runs passes over
// them until --seconds have elapsed (at least three untraced passes).
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes, prints the per-layer metrics
// (counts, host self times, the tracing overhead) and writes the last
// traced pass as Chrome-trace JSON to <out-dir>/trace_<workload>.json.
// The last line of standard output is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status 0 means every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed on every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"host_jobs_per_s", "1/s"},  {"peak_rss_mb", "MB"},
    {"model_p50_ms", "ms"},    {"model_p99_ms", "ms"},      {"model_jobs_per_s", "1/s"},
    {"served_ratio", "ratio"}, {"deadline_met_ratio", "ratio"}, {"snapshot_mb", "MB"},
    {"snapshot_save_ms", "ms"},
};

// Every per-layer metric, printed on every workload (0 where the layer
// does no work on it).
constexpr MetricSpec kPerLayer[] = {
    {"serve.cluster.submit_us_p50", "us"},
    {"serve.cluster.submit_us_p99", "us"},
    {"serve.cluster.run_self_ms", "ms"},
    {"serve.cluster.rejected", "count"},
    {"serve.cluster.shed", "count"},
    {"serve.cluster.overflowed", "count"},
    {"serve.work_us", "us"},
    {"serve.ledger.records", "count"},
    {"serve.model.samples", "count"},
    {"serve.model.p999_ms", "ms"},
    {"serve.model.samples_beyond_p999", "count"},
    {"serve.error_ratio", "ratio"},
    {"serve.deadline_miss_ratio", "ratio"},
    {"serve.supervisor.ticks", "count"},
    {"serve.supervisor.checkpoints", "count"},
    {"serve.supervisor.restores", "count"},
    {"serve.supervisor.crashes", "count"},
    {"serve.supervisor.tick_us_p50", "us"},
    {"serve.supervisor.tick_us_p99", "us"},
    {"serve.supervisor.checkpoint_ms", "ms"},
    {"util.worker_pool.util_w0", "ratio"},
    {"util.worker_pool.util_w1", "ratio"},
    {"util.worker_pool.util_w2", "ratio"},
    {"util.worker_pool.util_w3", "ratio"},
    {"util.worker_pool.tasks_w0", "count"},
    {"util.worker_pool.tasks_w1", "count"},
    {"util.worker_pool.tasks_w2", "count"},
    {"util.worker_pool.tasks_w3", "count"},
    {"core.taskswitch.cache_hit_rate", "ratio"},
    {"core.taskswitch.full_reconfigs", "count"},
    {"core.taskswitch.partial_reconfigs", "count"},
    {"core.taskswitch.regions_loaded", "count"},
    {"core.taskswitch.reconfig_ms", "ms"},
    {"core.driver.dma_retries", "count"},
    {"sim.timeline.pci.busy_ms", "ms"},
    {"sim.timeline.pci.queue_ms", "ms"},
    {"sim.timeline.pci.util", "ratio"},
    {"sim.timeline.pci.txns", "count"},
    {"sim.timeline.compute.busy_ms", "ms"},
    {"sim.timeline.compute.queue_ms", "ms"},
    {"sim.timeline.compute.util", "ratio"},
    {"sim.timeline.compute.txns", "count"},
    {"sim.timeline.reconfig.busy_ms", "ms"},
    {"sim.timeline.reconfig.queue_ms", "ms"},
    {"sim.timeline.reconfig.util", "ratio"},
    {"sim.timeline.reconfig.txns", "count"},
    {"sim.timeline.transactions_total", "count"},
    {"sim.snapshot.bytes_per_job", "B"},
    {"sim.snapshot.restore_ms", "ms"},
    {"sim.fault.events", "count"},
    {"trt.work_us", "us"},
    {"imgproc.work_us", "us"},
    {"chdl.trt.setup_ms", "ms"},
    {"chdl.trt.tape_ops", "count"},
    {"chdl.trt.cycles", "count"},
    {"chdl.trt.evals_per_cycle", "count"},
    {"chdl.trt.changes_per_eval", "ratio"},
    {"chdl.trt.cycles_per_s", "1/s"},
    {"chdl.trt.job_us", "us"},
    {"chdl.conv.setup_ms", "ms"},
    {"chdl.conv.tape_ops", "count"},
    {"chdl.conv.cycles", "count"},
    {"chdl.conv.evals_per_cycle", "count"},
    {"chdl.conv.changes_per_eval", "ratio"},
    {"chdl.conv.cycles_per_s", "1/s"},
    {"chdl.conv.job_us", "us"},
    {"bench.self.submit_ms", "ms"},
    {"bench.self.drain_ms", "ms"},
    {"bench.self.work_ms", "ms"},
    {"bench.self.snapshot_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_qos|crate_supervised|gate_trt|gate_conv> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fleet_qos") return make_fleet_qos(seed);
  if (name == "crate_supervised") return make_crate_supervised(seed);
  if (name == "gate_trt") return make_gate_trt(seed);
  if (name == "gate_conv") return make_gate_conv(seed);
  usage(("unknown workload " + name).c_str());
}

/// Deterministic content of a pass: it must repeat exactly.
bool same_model(const Pass& a, const Pass& b) {
  const auto same = [](const Metrics& x, const Metrics& y) {
    if (x.size() != y.size()) return false;
    for (const auto& [name, m] : x) {
      const auto it = y.find(name);
      if (it == y.end() || it->second.value != m.value) return false;
    }
    return true;
  };
  return a.model_digest == b.model_digest && same(a.model, b.model) && same(a.counts, b.counts);
}

double jobs_per_s(const Pass& p) {
  return p.work_s > 0 ? static_cast<double>(p.served) / p.work_s : 0.0;
}

/// Host self-time split of one traced pass, by layer boundary.
void add_self_split(Metrics& host, const Tracer& tracer) {
  host["bench.self.submit_ms"] = {
      tracer.self_ms("serve.cluster.submit") + tracer.self_ms("serve.service.submit"), "ms"};
  host["bench.self.drain_ms"] = {tracer.self_ms("serve.cluster.run") +
                                     tracer.self_ms("serve.service.run") +
                                     tracer.self_ms("serve.supervisor.tick") +
                                     tracer.self_ms("serve.supervisor.run"),
                                 "ms"};
  double work = 0.0;
  for (const char* name : {"serve.work", "trt.work", "imgproc.work", "chdl.trt.job",
                           "chdl.conv.job"}) {
    work += tracer.total_ms(name);
  }
  host["bench.self.work_ms"] = {work, "ms"};
  host["bench.self.snapshot_ms"] = {
      tracer.self_ms("sim.snapshot.save") + tracer.self_ms("sim.snapshot.restore"), "ms"};
}

void print_metric(bool& first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name,
              value, unit);
  first = false;
}

int run(const Args& args) {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  const double inputs_s = seconds_since(start);

  std::vector<Pass> plain;   // untraced passes
  std::vector<Pass> traced;  // traced passes
  Tracer tracer;
  double rss_mb = 0.0;
  const Clock::time_point measure = Clock::now();
  while (true) {
    plain.push_back(workload->run_pass(nullptr));
    // Peak RSS over inputs plus one pass: later passes only add allocator
    // fragmentation, which varies from run to run.
    if (plain.size() == 1) rss_mb = peak_rss_mb();
    // Per-pass host figures on stderr, for looking into run-to-run noise.
    std::fprintf(stderr, "pass %zu at %.2f s: setup %.6f s, work %.4f s, %.1f jobs/s, save %.3f ms\n",
                 plain.size(), seconds_since(measure), plain.back().setup_s,
                 plain.back().work_s, jobs_per_s(plain.back()), plain.back().save_ms);
    if (args.trace) {
      tracer.clear();
      traced.push_back(workload->run_pass(&tracer));
      add_self_split(traced.back().host, tracer);
    }
    const bool enough = args.trace ? traced.size() >= 2 : plain.size() >= 3;
    if (enough && seconds_since(measure) >= args.seconds) break;
  }

  // Output checks: every pass clean, every pass's modelled results equal.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const Pass& ref = plain.front();
  for (const std::vector<Pass>* set : {&plain, &traced}) {
    for (const Pass& p : *set) {
      attempted += p.submitted;
      failed += p.failed_checks;
      if (!same_model(p, ref)) ++failed;
    }
  }
  const bool correct = failed == 0;

  std::vector<double> setup, rate, save;
  for (const Pass& p : plain) {
    setup.push_back(p.setup_s);
    rate.push_back(jobs_per_s(p));
    save.push_back(p.save_ms);
  }
  Metrics out;
  if (!args.trace) {
    out["setup_s"] = {median(setup), "s"};
    out["host_jobs_per_s"] = {median(rate), "1/s"};
    out["peak_rss_mb"] = {rss_mb, "MB"};
    out["snapshot_save_ms"] = {median(save), "ms"};
    for (const auto& [name, m] : ref.model) out[name] = m;
  } else {
    for (const auto& [name, m] : ref.counts) out[name] = m;
    // Host figures: median over the traced passes.
    std::map<std::string, std::vector<double>> host;
    for (const Pass& p : traced) {
      for (const auto& [name, m] : p.host) host[name].push_back(m.value);
    }
    for (const auto& [name, values] : host) {
      out[name] = {median(values), traced.front().host.at(name).unit};
    }
    std::vector<double> traced_rate;
    for (const Pass& p : traced) traced_rate.push_back(jobs_per_s(p));
    out["bench.trace_overhead_pct"] = {100.0 * (1.0 - median(traced_rate) / median(rate)), "%"};
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/trace_" + args.workload + ".json";
    if (!tracer.write_chrome_trace(path, 20'000)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %s\n", path.c_str());
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes, inputs %.3f s, "
              "measured %.3f s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), inputs_s, seconds_since(measure));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  bool complete = true;
  const auto emit = [&](const auto& table) {
    for (const MetricSpec& spec : table) {
      const auto it = out.find(spec.name);
      // Layers a workload does not exercise read 0; an end-to-end metric
      // must always be measured.
      if (it == out.end() && !args.trace) complete = false;
      if (it != out.end() && it->second.unit != spec.unit) {
        std::fprintf(stderr, "perfbench: metric %s measured in %s, listed in %s\n", spec.name,
                     it->second.unit.c_str(), spec.unit);
        complete = false;
      }
      print_metric(first, spec.name, it == out.end() ? 0.0 : it->second.value, spec.unit);
      out.erase(spec.name);
    }
  };
  if (args.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  std::printf("}}\n");
  for (const auto& [name, m] : out) {
    std::fprintf(stderr, "perfbench: metric %s is missing from the metric table\n", name.c_str());
    complete = false;
  }
  return correct && complete ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
