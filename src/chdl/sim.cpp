#include "chdl/sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "chdl/threaded.hpp"
#include "util/bitops.hpp"

namespace atlantis::chdl {
namespace {

int words_for(int width) { return BitVec::word_count(width); }

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~std::uint64_t{0} : util::low_mask(width);
}

void mask_top_word(std::uint64_t* p, int width) {
  const int rem = width % 64;
  if (rem != 0) p[(width - 1) / 64] &= util::low_mask(rem);
}

bool get_bit(const std::uint64_t* p, int i) {
  return ((p[i / 64] >> (i % 64)) & 1) != 0;
}

void set_bit(std::uint64_t* p, int i, bool v) {
  const std::uint64_t m = std::uint64_t{1} << (i % 64);
  if (v) {
    p[i / 64] |= m;
  } else {
    p[i / 64] &= ~m;
  }
}

/// Copies n bits from src[src_lo..] to dst[dst_lo..]. Bit-granular; hot
/// designs keep buses <= 64 bits where the word fast paths apply instead.
void copy_bits(std::uint64_t* dst, int dst_lo, const std::uint64_t* src,
               int src_lo, int n) {
  for (int i = 0; i < n; ++i) set_bit(dst, dst_lo + i, get_bit(src, src_lo + i));
}

/// Single-word fast-path opcode of a component kind; kWide for kinds
/// that only the general path evaluates.
TCode single_code(CompKind kind) {
  switch (kind) {
    case CompKind::kNot:       return TCode::kNot;
    case CompKind::kAnd:       return TCode::kAnd;
    case CompKind::kOr:        return TCode::kOr;
    case CompKind::kXor:       return TCode::kXor;
    case CompKind::kMux:       return TCode::kMux;
    case CompKind::kAdd:       return TCode::kAdd;
    case CompKind::kSub:       return TCode::kSub;
    case CompKind::kEq:        return TCode::kEq;
    case CompKind::kUlt:       return TCode::kUlt;
    case CompKind::kReduceAnd: return TCode::kReduceAnd;
    case CompKind::kReduceOr:  return TCode::kReduceOr;
    case CompKind::kReduceXor: return TCode::kReduceXor;
    case CompKind::kSlice:     return TCode::kSlice;
    case CompKind::kConcat:    return TCode::kConcat2;
    case CompKind::kShl:       return TCode::kShl;
    case CompKind::kShr:       return TCode::kShr;
    default:                   return TCode::kWide;  // kMuxN, ...
  }
}

}  // namespace

Simulator::Simulator(const Design& design, const SimOptions& options)
    : design_(design), mode_(options.mode) {
  design.check_complete();
  if (options.optimize) opt_.emplace(optimize(design));
  // Allocate one flat slot per wire. A wire the optimizer forwarded
  // shares its representative's slot (the representative always has a
  // smaller id, so its slot is already assigned); pokes, peeks and VCD
  // dumps then observe optimized-away wires with zero extra machinery.
  slots_.resize(static_cast<std::size_t>(design.wire_count()));
  std::int32_t offset = 0;
  for (std::int32_t id = 0; id < design.wire_count(); ++id) {
    auto& s = slots_[static_cast<std::size_t>(id)];
    if (opt_) {
      const std::int32_t rep = opt_->forward[static_cast<std::size_t>(id)];
      if (rep != id) {
        s = slots_[static_cast<std::size_t>(rep)];
        continue;
      }
    }
    const int width = design.wire_width(id);
    s.offset = offset;
    s.width = width;
    s.words = words_for(width);
    offset += s.words;
  }
  values_.assign(static_cast<std::size_t>(offset), 0);
  stage_.assign(static_cast<std::size_t>(offset), 0);

  is_input_.assign(slots_.size(), 0);
  for (const auto& [name, w] : design.inputs()) {
    is_input_[static_cast<std::size_t>(w.id)] = 1;
  }

  // RAM storage.
  ram_data_.resize(design.rams().size());
  ram_stride_.resize(design.rams().size());
  for (std::size_t r = 0; r < design.rams().size(); ++r) {
    const RamBlock& blk = design.rams()[r];
    ram_stride_[r] = words_for(blk.width);
    ram_data_[r].assign(
        static_cast<std::size_t>(blk.words) * ram_stride_[r], 0);
  }

  cycle_count_.assign(static_cast<std::size_t>(design.clock_count()), 0);
  split_components();
  if (opt_) {
    // An aliased component's output shares its representative's storage
    // slot, so the full sweep must never evaluate it: kinds that
    // zero-fill the destination before reading (shift, slice, concat)
    // would wipe their own input when the alias points at it. The
    // representative keeps the shared slot up to date.
    std::erase_if(comb_order_, [&](std::int32_t i) {
      const Wire w = design.components()[static_cast<std::size_t>(i)].out;
      return opt_->forward[static_cast<std::size_t>(w.id)] != w.id;
    });
  }
  threaded_ = std::make_unique<ThreadedBackend>(*this, compile_tape());
  reset();
}

Simulator::~Simulator() = default;

const RegionPlan& Simulator::region_plan() const { return threaded_->plan(); }

void Simulator::split_components() {
  // Creation order is topological for combinational logic: add_comp only
  // accepts wires that already exist, so every comb input id is smaller
  // than its component's output id. Only a register or RAM port closes a
  // feedback loop; the check below keeps that an invariant of the
  // simulator, not just of today's Design API.
  const auto& comps = design_.components();
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comps.size()); ++i) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    switch (c.kind) {
      case CompKind::kReg:
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
        seq_comps_.push_back(i);
        break;
      case CompKind::kInput:
      case CompKind::kConst:
      case CompKind::kOutput:
        break;
      default:
        for (const Wire w : c.in) {
          if (w.valid() && w.id >= c.out.id) {
            throw util::Error("combinational cycle in design '" +
                              design_.name() + "' involving component #" +
                              std::to_string(i));
          }
        }
        comb_order_.push_back(i);
        break;
    }
  }
}

std::vector<TOp> Simulator::compile_tape() {
  // The tape is laid down in component-creation order, which stays
  // topological after optimization because every rewrite (alias, CSE
  // representative) points at an earlier-created wire. Each op's inputs,
  // resolved through the optimizer's forwarding map, go into graph_ so
  // the region compiler partitions the optimized graph. Aliased
  // components are already out of comb_order_; folded ones stay off the
  // tape too, since reset() writes their constants.
  const auto& comps = design_.components();
  std::vector<TOp> tape;
  tape.reserve(comb_order_.size());
  graph_.wire_count = design_.wire_count();
  graph_.in_begin.assign(1, 0);
  graph_.out_wire.reserve(comb_order_.size());
  for (const std::int32_t i : comb_order_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    if (opt_ && opt_->folded(c.out.id)) continue;
    const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
    const std::size_t first = graph_.in_wires.size();
    for (const Wire w : c.in) {
      if (w.valid()) graph_.in_wires.push_back(opt_ ? opt_->rep(w).id : w.id);
    }
    const std::int32_t* ins = graph_.in_wires.data() + first;
    const std::size_t n_ins = graph_.in_wires.size() - first;
    graph_.in_begin.push_back(static_cast<std::int32_t>(graph_.in_wires.size()));
    graph_.out_wire.push_back(c.out.id);

    TOp op;
    op.code = TCode::kWide;
    op.out = out.offset;
    op.mask = width_mask(out.width);
    // Single-word fast path: output and every input fit one word and the
    // operand layout maps onto the fixed in0/in1/in2 offsets. A slice of
    // a wider input qualifies too when its bits lie inside one input word,
    // which it then reads directly. Anything else runs eval_comp's general
    // path (TCode::kWide).
    bool single = out.words == 1;
    if (c.kind == CompKind::kSlice) {
      single = single && c.a / 64 == (c.a + out.width - 1) / 64;
    } else {
      for (std::size_t k = 0; k < n_ins; ++k) {
        single = single && slots_[static_cast<std::size_t>(ins[k])].words == 1;
      }
    }
    if (single) {
      op.code = single_code(c.kind);
      switch (c.kind) {
        case CompKind::kSlice:
          op.a = c.a % 64;
          break;
        case CompKind::kShl:
        case CompKind::kShr:
          // c.a >= 64 would make the word shift UB; the general path
          // handles those (they are all-zero results anyway).
          if (c.a >= 64) op.code = TCode::kWide;
          op.a = c.a;
          break;
        case CompKind::kConcat:
          // Two-part {hi, lo} concat compiles to shift+or; `a` holds the
          // low part's width.
          if (n_ins == 2) {
            op.a = design_.wire_width(ins[1]);
          } else {
            op.code = TCode::kWide;
          }
          break;
        case CompKind::kReduceAnd:
          op.imm = width_mask(design_.wire_width(ins[0]));
          break;
        default:
          break;
      }
    }
    if (op.code == TCode::kWide) {
      op.comp = i;
    } else {
      const auto off = [&](std::size_t k) {
        return k < n_ins ? slots_[static_cast<std::size_t>(ins[k])].offset : 0;
      };
      op.in0 = off(0) + (c.kind == CompKind::kSlice ? c.a / 64 : 0);
      op.in1 = off(1);
      op.in2 = off(2);
    }
    tape.push_back(op);
  }
  // Per wire: consumed by a sequential element, so the region compiler
  // diffs it even when no other region reads it.
  graph_.wire_seq_consumed.assign(slots_.size(), 0);
  for (const std::int32_t i : seq_comps_) {
    for (const Wire w : comps[static_cast<std::size_t>(i)].in) {
      if (!w.valid()) continue;
      const Wire r = opt_ ? opt_->rep(w) : w;
      graph_.wire_seq_consumed[static_cast<std::size_t>(r.id)] = 1;
    }
  }
  return tape;
}

void Simulator::mark_all_dirty() {
  comb_dirty_ = true;
  threaded_->mark_all();
}

void Simulator::set_eval_mode(EvalMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  // Everything is re-evaluated on the next peek/step so stale values
  // cannot leak across the policy switch: marks only land on the
  // threaded engine's worklists while it runs, so the rebuild here is
  // what makes a mid-run switch sound.
  mark_all_dirty();
}

void Simulator::reset() {
  // Fresh measurement epoch (see header): pre-reset work must not be
  // double-counted by speed reports that reset + drive + read activity.
  activity_ = {};
  std::fill(values_.begin(), values_.end(), 0);
  const auto& comps = design_.components();
  for (const Component& c : comps) {
    if (c.kind == CompKind::kConst || c.kind == CompKind::kReg) {
      store(c.out, c.init);
    }
  }
  // Wires the optimizer proved constant: written once here, their
  // producers never appear on the tape again.
  if (opt_) {
    for (std::int32_t id = 0; id < design_.wire_count(); ++id) {
      const BitVec& v = opt_->fold_value[static_cast<std::size_t>(id)];
      if (!v.empty()) store(Wire{id, v.width()}, v);
    }
  }
  // ROM contents (and zero for RAMs).
  for (std::size_t r = 0; r < design_.rams().size(); ++r) {
    const RamBlock& blk = design_.rams()[r];
    if (!blk.init.empty()) {
      for (std::size_t a = 0; a < blk.init.size(); ++a) {
        const auto& w = blk.init[a].words();
        std::copy(w.begin(), w.end(),
                  ram_data_[r].begin() +
                      static_cast<std::ptrdiff_t>(a) * ram_stride_[r]);
      }
    } else {
      std::fill(ram_data_[r].begin(), ram_data_[r].end(), 0);
    }
  }
  std::fill(cycle_count_.begin(), cycle_count_.end(), 0);
  mark_all_dirty();
}

void Simulator::save_state(sim::SnapshotWriter& w) const {
  // Only primary state goes into the stream. Worklists, shadow values
  // and region plans are derived; load_state rebuilds them.
  w.put_string(design_.name());
  w.put_words(values_);
  w.put_u32(static_cast<std::uint32_t>(ram_data_.size()));
  for (const auto& ram : ram_data_) w.put_words(ram);
  w.put_words(cycle_count_);
  w.put_u64(activity_.comp_evals);
  w.put_u64(activity_.comp_changes);
  w.put_u64(activity_.edges);
}

void Simulator::load_state(sim::SnapshotReader& r) {
  const std::string name = r.get_string();
  ATLANTIS_CHECK(name == design_.name(),
                 "snapshot was taken from design '" + name + "', not '" +
                     design_.name() + "'");
  std::vector<std::uint64_t> values = r.get_words();
  ATLANTIS_CHECK(values.size() == values_.size(),
                 "snapshot wire storage shape mismatch");
  const std::uint32_t n_rams = r.get_u32();
  ATLANTIS_CHECK(n_rams == ram_data_.size(), "snapshot RAM count mismatch");
  std::vector<std::vector<std::uint64_t>> rams;
  rams.reserve(n_rams);
  for (std::uint32_t i = 0; i < n_rams; ++i) {
    rams.push_back(r.get_words());
    ATLANTIS_CHECK(rams.back().size() == ram_data_[i].size(),
                   "snapshot RAM shape mismatch");
  }
  std::vector<std::uint64_t> cycles = r.get_words();
  ATLANTIS_CHECK(cycles.size() == cycle_count_.size(),
                 "snapshot clock domain count mismatch");
  values_.assign(values.begin(), values.end());
  for (std::size_t i = 0; i < rams.size(); ++i) {
    ram_data_[i].assign(rams[i].begin(), rams[i].end());
  }
  cycle_count_.assign(cycles.begin(), cycles.end());
  activity_.comp_evals = r.get_u64();
  activity_.comp_changes = r.get_u64();
  activity_.edges = r.get_u64();
  // Re-derive everything else: with all ops marked dirty, the next
  // evaluation recomputes every combinational value from the restored
  // wires — a pure function of them — so either policy converges to the
  // same fixed point the saved simulator held.
  mark_all_dirty();
}

void Simulator::store(Wire w, const BitVec& v) {
  ATLANTIS_CHECK(v.width() == w.width, "value width mismatch");
  const WireSlot& s = slots_[static_cast<std::size_t>(w.id)];
  std::copy(v.words().begin(), v.words().end(), values_.begin() + s.offset);
}

BitVec Simulator::load(Wire w) const {
  const WireSlot& s = slots_[static_cast<std::size_t>(w.id)];
  BitVec v(w.width);
  std::copy(values_.begin() + s.offset, values_.begin() + s.offset + s.words,
            v.words().begin());
  return v;
}

void Simulator::poke(Wire input, const BitVec& value) {
  ATLANTIS_CHECK(input.valid() &&
                     input.id < static_cast<std::int32_t>(is_input_.size()) &&
                     is_input_[static_cast<std::size_t>(input.id)] != 0,
                 "poke target is not a design input");
  ATLANTIS_CHECK(value.width() == input.width, "value width mismatch");
  const WireSlot& s = slots_[static_cast<std::size_t>(input.id)];
  std::uint64_t* dst = values_.data() + s.offset;
  if (std::equal(value.words().begin(), value.words().end(), dst)) {
    return;  // unchanged input: nothing downstream can change
  }
  std::copy(value.words().begin(), value.words().end(), dst);
  if (mode_ == EvalMode::kThreaded) threaded_->mark_wire(input.id);
  comb_dirty_ = true;
}

void Simulator::poke(const std::string& port, std::uint64_t value) {
  const Wire w = design_.port(port);
  poke(w, BitVec(w.width, value));
}

BitVec Simulator::peek(Wire w) {
  eval_comb();
  return load(w);
}

std::uint64_t Simulator::peek_u64(Wire w) { return peek(w).to_u64(); }

std::uint64_t Simulator::peek_u64(const std::string& port) {
  return peek_u64(design_.port(port));
}

void Simulator::eval_comb() {
  if (mode_ == EvalMode::kThreaded) {
    threaded_->eval();
    return;
  }
  if (!comb_dirty_) return;
  const auto& comps = design_.components();
  for (const std::int32_t i : comb_order_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    eval_comp(c, values_.data() +
                     slots_[static_cast<std::size_t>(c.out.id)].offset);
  }
  activity_.comp_evals += comb_order_.size();
  comb_dirty_ = false;
}

void Simulator::eval_comp(const Component& c, std::uint64_t* dst) {
  const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
  auto src = [&](std::size_t k) -> const std::uint64_t* {
    return wire_ptr(c.in[k].id);
  };
  switch (c.kind) {
    case CompKind::kNot: {
      const std::uint64_t* a = src(0);
      for (int w = 0; w < out.words; ++w) dst[w] = ~a[w];
      mask_top_word(dst, out.width);
      break;
    }
    case CompKind::kAnd: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      for (int w = 0; w < out.words; ++w) dst[w] = a[w] & b[w];
      break;
    }
    case CompKind::kOr: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      for (int w = 0; w < out.words; ++w) dst[w] = a[w] | b[w];
      break;
    }
    case CompKind::kXor: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      for (int w = 0; w < out.words; ++w) dst[w] = a[w] ^ b[w];
      break;
    }
    case CompKind::kMux: {
      const bool sel = (src(0)[0] & 1) != 0;
      const std::uint64_t* v = sel ? src(1) : src(2);
      std::copy(v, v + out.words, dst);
      break;
    }
    case CompKind::kMuxN: {
      const std::uint64_t selv = src(0)[0];
      const std::size_t n = c.in.size() - 1;
      const std::size_t idx = std::min<std::uint64_t>(selv, n - 1);
      const std::uint64_t* v = src(1 + idx);
      std::copy(v, v + out.words, dst);
      break;
    }
    case CompKind::kAdd: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      unsigned __int128 carry = 0;
      for (int w = 0; w < out.words; ++w) {
        const unsigned __int128 s =
            static_cast<unsigned __int128>(a[w]) + b[w] + carry;
        dst[w] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      mask_top_word(dst, out.width);
      break;
    }
    case CompKind::kSub: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      unsigned __int128 carry = 1;
      for (int w = 0; w < out.words; ++w) {
        const unsigned __int128 s =
            static_cast<unsigned __int128>(a[w]) + ~b[w] + carry;
        dst[w] = static_cast<std::uint64_t>(s);
        carry = s >> 64;
      }
      mask_top_word(dst, out.width);
      break;
    }
    case CompKind::kEq: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      bool equal = true;
      for (int w = 0; w < n; ++w) {
        if (a[w] != b[w]) {
          equal = false;
          break;
        }
      }
      dst[0] = equal ? 1 : 0;
      break;
    }
    case CompKind::kUlt: {
      const std::uint64_t* a = src(0);
      const std::uint64_t* b = src(1);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      bool lt = false;
      for (int w = n; w-- > 0;) {
        if (a[w] != b[w]) {
          lt = a[w] < b[w];
          break;
        }
      }
      dst[0] = lt ? 1 : 0;
      break;
    }
    case CompKind::kReduceAnd: {
      const Wire in0 = c.in[0];
      const std::uint64_t* a = src(0);
      bool all = true;
      for (int i = 0; i < in0.width && all; ++i) all = get_bit(a, i);
      dst[0] = all ? 1 : 0;
      break;
    }
    case CompKind::kReduceOr: {
      const std::uint64_t* a = src(0);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      bool any = false;
      for (int w = 0; w < n && !any; ++w) any = a[w] != 0;
      dst[0] = any ? 1 : 0;
      break;
    }
    case CompKind::kReduceXor: {
      const std::uint64_t* a = src(0);
      const int n = slots_[static_cast<std::size_t>(c.in[0].id)].words;
      std::uint64_t acc = 0;
      for (int w = 0; w < n; ++w) acc ^= a[w];
      dst[0] = static_cast<std::uint64_t>(std::popcount(acc) & 1);
      break;
    }
    case CompKind::kSlice: {
      const std::uint64_t* a = src(0);
      if (c.a % 64 == 0 && out.width <= 64) {
        dst[0] = a[c.a / 64];
        mask_top_word(dst, out.width);
      } else if (c.a + out.width <= 64) {
        dst[0] = (a[0] >> c.a) & util::low_mask(out.width);
      } else {
        std::fill(dst, dst + out.words, 0);
        copy_bits(dst, 0, a, c.a, out.width);
      }
      break;
    }
    case CompKind::kConcat: {
      std::fill(dst, dst + out.words, 0);
      // in[0] is the most significant part.
      int lo = 0;
      for (std::size_t k = c.in.size(); k-- > 0;) {
        copy_bits(dst, lo, src(k), 0, c.in[k].width);
        lo += c.in[k].width;
      }
      break;
    }
    case CompKind::kShl: {
      const std::uint64_t* a = src(0);
      std::fill(dst, dst + out.words, 0);
      if (c.a < out.width) copy_bits(dst, c.a, a, 0, out.width - c.a);
      break;
    }
    case CompKind::kShr: {
      const std::uint64_t* a = src(0);
      std::fill(dst, dst + out.words, 0);
      if (c.a < out.width) copy_bits(dst, 0, a, c.a, out.width - c.a);
      break;
    }
    default:
      break;  // sequential / port kinds are not evaluated here
  }
}

void Simulator::step(ClockId clock) {
  ATLANTIS_CHECK(clock.id >= 0 && clock.id < design_.clock_count(),
                 "unknown clock domain");
  eval_comb();
  if (mode_ == EvalMode::kThreaded) {
    threaded_->commit_edge(clock);
  } else {
    commit_edge(clock);
    comb_dirty_ = true;
  }
  eval_comb();
  ++cycle_count_[static_cast<std::size_t>(clock.id)];
  ++activity_.edges;
  if (edge_hook_) edge_hook_(*this, clock);
}

void Simulator::run(int n) {
  for (int i = 0; i < n; ++i) step();
}

void Simulator::commit_edge(ClockId clock) {
  const auto& comps = design_.components();
  // Phase 1: compute next values into stage_ (reads see pre-edge state).
  struct PendingWrite {
    std::int32_t ram;
    std::int64_t addr;
    std::int32_t src_wire;
  };
  static thread_local std::vector<PendingWrite> writes;
  writes.clear();
  static thread_local std::vector<std::int32_t> touched;
  touched.clear();

  for (const std::int32_t i : seq_comps_) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    if (c.clock != clock.id) continue;
    switch (c.kind) {
      case CompKind::kReg: {
        const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
        std::uint64_t* st = stage_.data() + out.offset;
        const Wire en = c.in[1];
        const Wire rst = c.in[2];
        const bool reset_now = rst.valid() && (wire_ptr(rst.id)[0] & 1) != 0;
        const bool enabled =
            !en.valid() || (wire_ptr(en.id)[0] & 1) != 0;
        if (reset_now) {
          std::copy(c.init.words().begin(), c.init.words().end(), st);
        } else if (enabled) {
          const std::uint64_t* d = wire_ptr(c.in[0].id);
          std::copy(d, d + out.words, st);
        } else {
          const std::uint64_t* q = wire_ptr(c.out.id);
          std::copy(q, q + out.words, st);
        }
        touched.push_back(c.out.id);
        break;
      }
      case CompKind::kRamRead: {
        const WireSlot& out = slots_[static_cast<std::size_t>(c.out.id)];
        std::uint64_t* st = stage_.data() + out.offset;
        const bool enabled =
            c.in.size() < 2 || (wire_ptr(c.in[1].id)[0] & 1) != 0;
        if (enabled) {
          const RamBlock& blk =
              design_.rams()[static_cast<std::size_t>(c.ram)];
          const std::uint64_t addr =
              wire_ptr(c.in[0].id)[0] % static_cast<std::uint64_t>(blk.words);
          const std::uint64_t* mem =
              ram_data_[static_cast<std::size_t>(c.ram)].data() +
              addr * static_cast<std::uint64_t>(
                         ram_stride_[static_cast<std::size_t>(c.ram)]);
          std::copy(mem, mem + out.words, st);
        } else {
          const std::uint64_t* q = wire_ptr(c.out.id);
          std::copy(q, q + out.words, st);
        }
        touched.push_back(c.out.id);
        break;
      }
      case CompKind::kRamWrite: {
        const bool we = (wire_ptr(c.in[2].id)[0] & 1) != 0;
        if (we) {
          const RamBlock& blk =
              design_.rams()[static_cast<std::size_t>(c.ram)];
          const auto addr = static_cast<std::int64_t>(
              wire_ptr(c.in[0].id)[0] % static_cast<std::uint64_t>(blk.words));
          writes.push_back({c.ram, addr, c.in[1].id});
        }
        break;
      }
      default:
        break;
    }
  }
  // Phase 2: commit RAM writes (after all reads sampled old contents).
  for (const PendingWrite& w : writes) {
    const std::int32_t stride = ram_stride_[static_cast<std::size_t>(w.ram)];
    std::uint64_t* mem = ram_data_[static_cast<std::size_t>(w.ram)].data() +
                         static_cast<std::uint64_t>(w.addr) * stride;
    const std::uint64_t* d = wire_ptr(w.src_wire);
    std::copy(d, d + stride, mem);
  }
  // Phase 3: commit register / read-port outputs.
  for (const std::int32_t id : touched) {
    const WireSlot& s = slots_[static_cast<std::size_t>(id)];
    std::copy(stage_.data() + s.offset, stage_.data() + s.offset + s.words,
              values_.data() + s.offset);
  }
}

void Simulator::write_ram(int ram, std::int64_t addr, const BitVec& value) {
  ATLANTIS_CHECK(ram >= 0 && ram < static_cast<int>(ram_data_.size()),
                 "unknown RAM");
  const RamBlock& blk = design_.rams()[static_cast<std::size_t>(ram)];
  ATLANTIS_CHECK(addr >= 0 && addr < blk.words, "RAM address out of range");
  ATLANTIS_CHECK(value.width() == blk.width, "RAM data width mismatch");
  std::copy(value.words().begin(), value.words().end(),
            ram_data_[static_cast<std::size_t>(ram)].begin() +
                static_cast<std::ptrdiff_t>(addr) *
                    ram_stride_[static_cast<std::size_t>(ram)]);
  // The change is visible through the RAM's synchronous read ports on
  // their next edge; arm them so the threaded edge tape re-reads.
  if (mode_ == EvalMode::kThreaded) threaded_->note_ram_written(ram);
}

BitVec Simulator::read_ram(int ram, std::int64_t addr) const {
  ATLANTIS_CHECK(ram >= 0 && ram < static_cast<int>(ram_data_.size()),
                 "unknown RAM");
  const RamBlock& blk = design_.rams()[static_cast<std::size_t>(ram)];
  ATLANTIS_CHECK(addr >= 0 && addr < blk.words, "RAM address out of range");
  BitVec v(blk.width);
  const auto* mem = ram_data_[static_cast<std::size_t>(ram)].data() +
                    static_cast<std::ptrdiff_t>(addr) *
                        ram_stride_[static_cast<std::size_t>(ram)];
  std::copy(mem, mem + ram_stride_[static_cast<std::size_t>(ram)],
            v.words().begin());
  return v;
}

}  // namespace atlantis::chdl
