#include "chdl/threaded.hpp"

#include <algorithm>
#include <bit>

#include "chdl/sim.hpp"
#include "util/status.hpp"

namespace atlantis::chdl {

// Single-word handler bodies, expanded into the computed-goto handlers.
// Each body is the one-word form of what Simulator::eval_comp computes
// for the corresponding component kind; order must match TCode (the
// label table is static_assert'd against TCode::kCount_).
#define ATLANTIS_THREADED_OPS(X)                                         \
  X(kNot, ~v[op->in0] & op->mask)                                        \
  X(kAnd, v[op->in0] & v[op->in1])                                       \
  X(kOr, v[op->in0] | v[op->in1])                                        \
  X(kXor, v[op->in0] ^ v[op->in1])                                       \
  X(kMux, (v[op->in0] & 1) != 0 ? v[op->in1] : v[op->in2])               \
  X(kAdd, (v[op->in0] + v[op->in1]) & op->mask)                          \
  X(kSub, (v[op->in0] - v[op->in1]) & op->mask)                          \
  X(kEq, v[op->in0] == v[op->in1] ? 1 : 0)                               \
  X(kUlt, v[op->in0] < v[op->in1] ? 1 : 0)                               \
  X(kReduceAnd, v[op->in0] == op->imm ? 1 : 0)                           \
  X(kReduceOr, v[op->in0] != 0 ? 1 : 0)                                  \
  X(kReduceXor, static_cast<std::uint64_t>(std::popcount(v[op->in0]) & 1)) \
  X(kSlice, (v[op->in0] >> op->a) & op->mask)                            \
  X(kConcat2, ((v[op->in0] << op->a) | v[op->in1]) & op->mask)           \
  X(kShl, (v[op->in0] << op->a) & op->mask)                              \
  X(kShr, v[op->in0] >> op->a)

ThreadedBackend::ThreadedBackend(Simulator& sim, const std::vector<TOp>& tape)
    : sim_(sim), plan_(build_region_plan(sim.graph_)) {
  layout_code(tape);
  build_seq_tape();
  shadow_.assign(sim_.values_.size(), 0);
  buckets_.assign(static_cast<std::size_t>(plan_.max_level) + 1, {});
  region_queued_.assign(plan_.regions.size(), 0);
}

void ThreadedBackend::layout_code(const std::vector<TOp>& tape) {
  code_begin_.reserve(plan_.regions.size());
  code_.reserve(plan_.op_order.size() + plan_.regions.size());
  for (const Region& region : plan_.regions) {
    code_begin_.push_back(static_cast<std::int32_t>(code_.size()));
    for (std::int32_t i = region.ops_begin; i < region.ops_end; ++i) {
      code_.push_back(tape[static_cast<std::size_t>(
          plan_.op_order[static_cast<std::size_t>(i)])]);
    }
    code_.push_back(TOp{});  // TCode::kEnd terminator
  }
}

void ThreadedBackend::build_seq_tape() {
  const auto& comps = sim_.design_.components();
  const auto rep = [&](Wire w) { return sim_.opt_ ? sim_.opt_->rep(w) : w; };
  const auto off = [&](Wire w) {
    return sim_.slots_[static_cast<std::size_t>(w.id)].offset;
  };
  seq_dirty_.assign(static_cast<std::size_t>(sim_.design_.clock_count()), {});
  ram_readers_.assign(sim_.design_.rams().size(), {});
  // (wire, consuming SeqOp) edges for the fanout CSR below.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (const std::int32_t i : sim_.seq_comps_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    const std::int32_t si = static_cast<std::int32_t>(seq_ops_.size());
    SeqOp s;
    s.clock = c.clock;
    const auto watch = [&](Wire w) {
      if (w.valid()) edges.emplace_back(rep(w).id, si);
    };
    switch (c.kind) {
      case CompKind::kReg: {
        const auto& slot = sim_.slots_[static_cast<std::size_t>(c.out.id)];
        s.out_wire = rep(c.out).id;
        s.out_off = slot.offset;
        s.out_words = slot.words;
        s.kind = slot.words == 1 ? SeqOp::kReg1 : SeqOp::kRegN;
        s.d_off = off(c.in[0]);
        if (c.in[1].valid()) s.en_off = off(c.in[1]);
        if (c.in[2].valid()) s.rst_off = off(c.in[2]);
        s.init = c.init.words().data();
        watch(c.in[0]);
        watch(c.in[1]);
        watch(c.in[2]);
        break;
      }
      case CompKind::kRamRead: {
        const auto& slot = sim_.slots_[static_cast<std::size_t>(c.out.id)];
        s.kind = SeqOp::kRamRead;
        s.ram = c.ram;
        s.out_wire = rep(c.out).id;
        s.out_off = slot.offset;
        s.out_words = slot.words;  // == the RAM's word stride
        s.addr_off = off(c.in[0]);
        if (c.in.size() >= 2 && c.in[1].valid()) s.en_off = off(c.in[1]);
        ram_readers_[static_cast<std::size_t>(c.ram)].push_back(si);
        watch(c.in[0]);
        if (c.in.size() >= 2) watch(c.in[1]);
        break;
      }
      case CompKind::kRamWrite: {
        s.kind = SeqOp::kRamWrite;
        s.ram = c.ram;
        s.out_words = sim_.ram_stride_[static_cast<std::size_t>(c.ram)];
        s.addr_off = off(c.in[0]);
        s.d_off = off(c.in[1]);
        s.en_off = off(c.in[2]);
        watch(c.in[0]);
        watch(c.in[1]);
        watch(c.in[2]);
        break;
      }
      default:
        continue;
    }
    seq_ops_.push_back(s);
  }
  seq_queued_.assign(seq_ops_.size(), 0);

  const std::size_t n_wires = sim_.slots_.size();
  std::vector<std::int32_t> counts(n_wires, 0);
  for (const auto& [w, si] : edges) ++counts[static_cast<std::size_t>(w)];
  seq_fan_begin_.assign(n_wires + 1, 0);
  for (std::size_t w = 0; w < n_wires; ++w) {
    seq_fan_begin_[w + 1] = seq_fan_begin_[w] + counts[w];
  }
  seq_fan_ops_.assign(static_cast<std::size_t>(seq_fan_begin_.back()), 0);
  std::vector<std::int32_t> cursor(seq_fan_begin_.begin(),
                                   seq_fan_begin_.end() - 1);
  for (const auto& [w, si] : edges) {
    seq_fan_ops_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(w)]++)] = si;
  }
}

void ThreadedBackend::mark_region(std::int32_t r) {
  if (region_queued_[static_cast<std::size_t>(r)]) return;
  region_queued_[static_cast<std::size_t>(r)] = 1;
  buckets_[static_cast<std::size_t>(
      plan_.regions[static_cast<std::size_t>(r)].level)].push_back(r);
  ++dirty_regions_;
}

void ThreadedBackend::mark_seq(std::int32_t s) {
  if (seq_queued_[static_cast<std::size_t>(s)]) return;
  seq_queued_[static_cast<std::size_t>(s)] = 1;
  seq_dirty_[static_cast<std::size_t>(
      seq_ops_[static_cast<std::size_t>(s)].clock)].push_back(s);
}

void ThreadedBackend::mark_wire(std::int32_t wire_id) {
  const std::size_t w = static_cast<std::size_t>(wire_id);
  for (std::int32_t i = plan_.fan_begin[w]; i < plan_.fan_begin[w + 1]; ++i) {
    mark_region(plan_.fan_regions[static_cast<std::size_t>(i)]);
  }
  for (std::int32_t i = seq_fan_begin_[w]; i < seq_fan_begin_[w + 1]; ++i) {
    mark_seq(seq_fan_ops_[static_cast<std::size_t>(i)]);
  }
}

void ThreadedBackend::mark_all() {
  for (auto& b : buckets_) b.clear();
  std::fill(region_queued_.begin(), region_queued_.end(), 1);
  for (std::int32_t r = 0; r < plan_.region_count(); ++r) {
    buckets_[static_cast<std::size_t>(
        plan_.regions[static_cast<std::size_t>(r)].level)].push_back(r);
  }
  dirty_regions_ = plan_.region_count();
  for (auto& l : seq_dirty_) l.clear();
  std::fill(seq_queued_.begin(), seq_queued_.end(), 1);
  for (std::size_t s = 0; s < seq_ops_.size(); ++s) {
    seq_dirty_[static_cast<std::size_t>(seq_ops_[s].clock)].push_back(
        static_cast<std::int32_t>(s));
  }
}

void ThreadedBackend::note_ram_written(std::int32_t ram) {
  for (const std::int32_t rd : ram_readers_[static_cast<std::size_t>(ram)]) {
    mark_seq(rd);
  }
}

void ThreadedBackend::eval() {
  if (dirty_regions_ == 0) return;
  for (auto& q : buckets_) {
    // Output diffing only marks strictly higher-level regions (the plan
    // excludes intra-region edges from the fanout CSR), so the bucket
    // being drained never grows.
    for (std::size_t i = 0; i < q.size(); ++i) {
      const std::int32_t r = q[i];
      region_queued_[static_cast<std::size_t>(r)] = 0;
      execute_region(r);
    }
    q.clear();
  }
  dirty_regions_ = 0;
}

void ThreadedBackend::execute_region(std::int32_t r) {
  const Region& region = plan_.regions[static_cast<std::size_t>(r)];
  const TOp* op = code_.data() + code_begin_[static_cast<std::size_t>(r)];
  std::uint64_t* const v = sim_.values_.data();
  const auto& comps = sim_.design_.components();

  // Computed goto (GCC and Clang, the project's compilers): each handler
  // ends in one indirect branch through the label table, predicted per
  // opcode.
#define ATLANTIS_LABEL_ENTRY(name, body) &&L_##name,
  static const void* const kDispatch[] = {
      &&L_End,
      &&L_Wide,
      ATLANTIS_THREADED_OPS(ATLANTIS_LABEL_ENTRY)
  };
#undef ATLANTIS_LABEL_ENTRY
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                    static_cast<std::size_t>(TCode::kCount_),
                "dispatch table must cover every TCode");
#define ATLANTIS_DISPATCH() goto* kDispatch[static_cast<std::size_t>(op->code)]
  ATLANTIS_DISPATCH();
#define ATLANTIS_GOTO_HANDLER(name, body) \
  L_##name : v[op->out] = (body);         \
  ++op;                                   \
  ATLANTIS_DISPATCH();
  ATLANTIS_THREADED_OPS(ATLANTIS_GOTO_HANDLER)
#undef ATLANTIS_GOTO_HANDLER
L_Wide:
  sim_.eval_comp(comps[static_cast<std::size_t>(op->comp)], v + op->out);
  ++op;
  ATLANTIS_DISPATCH();
L_End:;
#undef ATLANTIS_DISPATCH

  sim_.activity_.comp_evals +=
      static_cast<std::uint64_t>(region.ops_end - region.ops_begin);
  // Single change check per region: diff the outputs against the value
  // each consumer last saw, propagate only real changes.
  std::uint64_t* const sh = shadow_.data();
  for (std::int32_t i = region.outs_begin; i < region.outs_end; ++i) {
    const std::int32_t w = plan_.out_wires[static_cast<std::size_t>(i)];
    const auto& slot = sim_.slots_[static_cast<std::size_t>(w)];
    std::uint64_t* cur = v + slot.offset;
    std::uint64_t* old = sh + slot.offset;
    if (std::equal(cur, cur + slot.words, old)) continue;
    std::copy(cur, cur + slot.words, old);
    ++sim_.activity_.comp_changes;
    mark_wire(w);
  }
}

void ThreadedBackend::commit_edge(ClockId clock) {
  auto& list = seq_dirty_[static_cast<std::size_t>(clock.id)];
  if (list.empty()) return;
  // Take this edge's dirty list; re-arms issued while committing land on
  // the (cleared) swapped-in list for the next edge.
  committing_.swap(list);
  list.clear();
  for (const std::int32_t s : committing_) {
    seq_queued_[static_cast<std::size_t>(s)] = 0;
  }
  pending_writes_.clear();
  touched_.clear();

  std::uint64_t* const v = sim_.values_.data();
  std::uint64_t* const st = sim_.stage_.data();
  const auto& rams = sim_.design_.rams();
  // Phase 1: stage next register / read-port values from pre-edge state;
  // collect asserted write ports.
  for (const std::int32_t si : committing_) {
    const SeqOp& s = seq_ops_[static_cast<std::size_t>(si)];
    switch (s.kind) {
      case SeqOp::kReg1: {
        std::uint64_t next;
        if (s.rst_off >= 0 && (v[s.rst_off] & 1) != 0) {
          next = s.init[0];
        } else if (s.en_off < 0 || (v[s.en_off] & 1) != 0) {
          next = v[s.d_off];
        } else {
          next = v[s.out_off];
        }
        st[s.out_off] = next;
        touched_.push_back(si);
        break;
      }
      case SeqOp::kRegN: {
        const std::uint64_t* from;
        if (s.rst_off >= 0 && (v[s.rst_off] & 1) != 0) {
          from = s.init;
        } else if (s.en_off < 0 || (v[s.en_off] & 1) != 0) {
          from = v + s.d_off;
        } else {
          from = v + s.out_off;
        }
        std::copy(from, from + s.out_words, st + s.out_off);
        touched_.push_back(si);
        break;
      }
      case SeqOp::kRamRead: {
        if (s.en_off < 0 || (v[s.en_off] & 1) != 0) {
          const RamBlock& blk = rams[static_cast<std::size_t>(s.ram)];
          const std::uint64_t addr =
              v[s.addr_off] % static_cast<std::uint64_t>(blk.words);
          const std::uint64_t* mem =
              sim_.ram_data_[static_cast<std::size_t>(s.ram)].data() +
              addr * static_cast<std::uint64_t>(s.out_words);
          std::copy(mem, mem + s.out_words, st + s.out_off);
        } else {
          std::copy(v + s.out_off, v + s.out_off + s.out_words,
                    st + s.out_off);
        }
        touched_.push_back(si);
        break;
      }
      case SeqOp::kRamWrite: {
        if ((v[s.en_off] & 1) != 0) {
          const RamBlock& blk = rams[static_cast<std::size_t>(s.ram)];
          const auto addr = static_cast<std::int64_t>(
              v[s.addr_off] % static_cast<std::uint64_t>(blk.words));
          pending_writes_.push_back({si, s.ram, addr, s.d_off, s.out_words});
          // Sticky: an asserted port writes again next edge even if its
          // inputs hold (another port may overwrite the word meanwhile).
          mark_seq(si);
        }
        break;
      }
    }
  }
  // Phase 2: commit RAM writes after all reads sampled old contents, in
  // port creation order so that the later-created of two ports writing
  // one word wins, as in the reference. A word that actually changed
  // re-arms the RAM's read ports (the change becomes visible through
  // them on their next edge).
  std::sort(pending_writes_.begin(), pending_writes_.end(),
            [](const PendingWrite& a, const PendingWrite& b) {
              return a.port < b.port;
            });
  for (const PendingWrite& w : pending_writes_) {
    std::uint64_t* mem =
        sim_.ram_data_[static_cast<std::size_t>(w.ram)].data() +
        static_cast<std::uint64_t>(w.addr) *
            static_cast<std::uint64_t>(w.words);
    const std::uint64_t* d = v + w.src_off;
    if (std::equal(d, d + w.words, mem)) continue;
    std::copy(d, d + w.words, mem);
    note_ram_written(w.ram);
  }
  // Phase 3: commit outputs whose staged value differs, marking their
  // combinational and sequential fanout.
  for (const std::int32_t si : touched_) {
    const SeqOp& s = seq_ops_[static_cast<std::size_t>(si)];
    const std::uint64_t* staged = st + s.out_off;
    std::uint64_t* dst = v + s.out_off;
    if (std::equal(staged, staged + s.out_words, dst)) continue;
    std::copy(staged, staged + s.out_words, dst);
    mark_wire(s.out_wire);
  }
}

}  // namespace atlantis::chdl
