#include "chdl/region.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "util/status.hpp"

namespace atlantis::chdl {

RegionPlan build_region_plan(const RegionGraph& graph) {
  const std::int32_t n_ops = graph.op_count();
  const std::size_t n_wires = static_cast<std::size_t>(graph.wire_count);
  ATLANTIS_CHECK(graph.in_begin.size() == static_cast<std::size_t>(n_ops) + 1,
                 "RegionGraph CSR size mismatch");
  const auto inputs = [&](std::int32_t t) {
    const auto u = static_cast<std::size_t>(t);
    return std::span<const std::int32_t>(
        graph.in_wires.data() + graph.in_begin[u],
        graph.in_wires.data() + graph.in_begin[u + 1]);
  };

  // Producer op and distinct-consumer summary per wire. sole_consumer is
  // the consuming op when there is exactly one, -1 for none, -2 for many.
  std::vector<std::int32_t> producer(n_wires, -1);
  std::vector<std::int32_t> sole_consumer(n_wires, -1);
  for (std::int32_t t = 0; t < n_ops; ++t) {
    producer[static_cast<std::size_t>(
        graph.out_wire[static_cast<std::size_t>(t)])] = t;
    for (const std::int32_t w : inputs(t)) {
      auto& c = sole_consumer[static_cast<std::size_t>(w)];
      if (c == -1) {
        c = t;
      } else if (c != t) {
        c = -2;
      }
    }
  }

  RegionPlan plan;
  plan.op_region.assign(static_cast<std::size_t>(n_ops), -1);
  // Per region while partitioning: current tail op, op count, level.
  std::vector<std::int32_t> tail;
  std::vector<std::int32_t> size;
  std::vector<std::int32_t> level;
  // Per wire: the region of the op placed last among its readers.
  std::vector<std::int32_t> last_reader(n_wires, -1);
  for (std::int32_t t = 0; t < n_ops; ++t) {
    const auto ins = inputs(t);
    // Rule 1 (region.hpp): chain onto the deepest producing tail whose
    // only tape consumer is this op.
    std::int32_t target = -1;
    for (const std::int32_t w : ins) {
      const std::int32_t p = producer[static_cast<std::size_t>(w)];
      if (p < 0 || sole_consumer[static_cast<std::size_t>(w)] != t) continue;
      const auto r = static_cast<std::size_t>(
          plan.op_region[static_cast<std::size_t>(p)]);
      if (tail[r] == p && size[r] < kMaxRegionOps &&
          (target < 0 ||
           level[r] > level[static_cast<std::size_t>(target)])) {
        target = static_cast<std::int32_t>(r);
      }
    }
    // Rule 2 (region.hpp): join the region that last read every input,
    // if its tail feeds no tape op.
    const std::int32_t reader =
        ins.empty() ? -1 : last_reader[static_cast<std::size_t>(ins[0])];
    if (target < 0 && reader >= 0 &&
        size[static_cast<std::size_t>(reader)] < kMaxRegionOps &&
        sole_consumer[static_cast<std::size_t>(graph.out_wire[
            static_cast<std::size_t>(tail[static_cast<std::size_t>(
                reader)])])] == -1 &&
        std::all_of(ins.begin(), ins.end(), [&](std::int32_t w) {
          return last_reader[static_cast<std::size_t>(w)] == reader;
        })) {
      target = reader;
    }
    if (target < 0) {
      target = static_cast<std::int32_t>(tail.size());
      tail.push_back(-1);
      size.push_back(0);
      level.push_back(0);
    }
    const auto ut = static_cast<std::size_t>(target);
    tail[ut] = t;
    ++size[ut];
    plan.op_region[static_cast<std::size_t>(t)] = target;
    // Region level: one past every producing region. Producing regions
    // are closed by construction (their tail's output already has an
    // external consumer), so their levels are final here.
    for (const std::int32_t w : ins) {
      last_reader[static_cast<std::size_t>(w)] = target;
      const std::int32_t p = producer[static_cast<std::size_t>(w)];
      if (p < 0) continue;
      const std::int32_t pr = plan.op_region[static_cast<std::size_t>(p)];
      if (pr == target) continue;
      level[ut] = std::max(level[ut], level[static_cast<std::size_t>(pr)] + 1);
    }
  }

  // Assemble regions: op order per region (a CSR filled in tape order,
  // so each region's ops stay in execution order) and the diffed output
  // set (wires leaving the region for another region or a sequential
  // element).
  const auto n_regions = static_cast<std::int32_t>(tail.size());
  plan.regions.resize(tail.size());
  std::vector<std::int32_t> cursor(tail.size());
  std::int32_t begin = 0;
  for (std::size_t r = 0; r < tail.size(); ++r) {
    Region& region = plan.regions[r];
    region.level = level[r];
    plan.max_level = std::max(plan.max_level, region.level);
    region.ops_begin = cursor[r] = begin;
    begin += size[r];
    region.ops_end = begin;
  }
  plan.op_order.resize(static_cast<std::size_t>(n_ops));
  for (std::int32_t t = 0; t < n_ops; ++t) {
    const auto r = static_cast<std::size_t>(
        plan.op_region[static_cast<std::size_t>(t)]);
    plan.op_order[static_cast<std::size_t>(cursor[r]++)] = t;
  }
  for (std::int32_t r = 0; r < n_regions; ++r) {
    Region& region = plan.regions[static_cast<std::size_t>(r)];
    region.outs_begin = static_cast<std::int32_t>(plan.out_wires.size());
    for (std::int32_t k = region.ops_begin; k < region.ops_end; ++k) {
      const std::int32_t w = graph.out_wire[static_cast<std::size_t>(
          plan.op_order[static_cast<std::size_t>(k)])];
      const std::int32_t c = sole_consumer[static_cast<std::size_t>(w)];
      const bool external_tape_consumer =
          c == -2 ||
          (c >= 0 && plan.op_region[static_cast<std::size_t>(c)] != r);
      if (external_tape_consumer ||
          graph.wire_seq_consumed[static_cast<std::size_t>(w)] != 0) {
        plan.out_wires.push_back(w);
      }
    }
    region.outs_end = static_cast<std::int32_t>(plan.out_wires.size());
  }

  // Wire -> consuming regions CSR, deduplicated per wire. The producing
  // region is excluded (its interior consumers already saw the value
  // while the block executed), which also guarantees every mark issued
  // while the level queue drains targets a strictly higher level. Graph
  // inputs (ports, register outputs) list every reading region. Visiting
  // regions in ascending order lists each wire's regions sorted, with a
  // region's repeats adjacent, so one "last region" stamp per wire
  // deduplicates.
  const auto for_each_fan_edge = [&](auto&& emit) {
    std::vector<std::int32_t> last(n_wires, -1);
    for (std::int32_t r = 0; r < n_regions; ++r) {
      const Region& region = plan.regions[static_cast<std::size_t>(r)];
      for (std::int32_t k = region.ops_begin; k < region.ops_end; ++k) {
        for (const std::int32_t w :
             inputs(plan.op_order[static_cast<std::size_t>(k)])) {
          const auto uw = static_cast<std::size_t>(w);
          const std::int32_t p = producer[uw];
          if (p >= 0 && plan.op_region[static_cast<std::size_t>(p)] == r) {
            continue;  // intra-region edge
          }
          if (last[uw] == r) continue;
          last[uw] = r;
          emit(uw, r);
        }
      }
    }
  };
  plan.fan_begin.assign(n_wires + 1, 0);
  for_each_fan_edge([&](std::size_t w, std::int32_t) { ++plan.fan_begin[w + 1]; });
  std::partial_sum(plan.fan_begin.begin(), plan.fan_begin.end(),
                   plan.fan_begin.begin());
  plan.fan_regions.resize(static_cast<std::size_t>(plan.fan_begin.back()));
  cursor.assign(plan.fan_begin.begin(), plan.fan_begin.end() - 1);
  for_each_fan_edge([&](std::size_t w, std::int32_t r) {
    plan.fan_regions[static_cast<std::size_t>(cursor[w]++)] = r;
  });
  return plan;
}

}  // namespace atlantis::chdl
