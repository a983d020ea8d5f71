#include "chdl/optimize.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/status.hpp"

namespace atlantis::chdl {
namespace {

/// Combinational kinds: everything the simulator compiles onto the op
/// tape (mirrors Simulator::split_components' classification).
bool is_comb(CompKind k) {
  switch (k) {
    case CompKind::kReg:
    case CompKind::kRamRead:
    case CompKind::kRamWrite:
    case CompKind::kInput:
    case CompKind::kConst:
    case CompKind::kOutput:
      return false;
    default:
      return true;
  }
}

bool commutative(CompKind k) {
  switch (k) {
    case CompKind::kAnd:
    case CompKind::kOr:
    case CompKind::kXor:
    case CompKind::kAdd:
    case CompKind::kEq:
      return true;
    default:
      return false;
  }
}

/// Working state for one optimizer run. Wire ids are resolved through
/// `forward` (union-find with path compression); constants known so far
/// live in `cval`, keyed by representative id.
struct Pipeline {
  const Design& d;
  const OptimizeOptions& opts;
  OptimizedNetlist out;
  std::vector<BitVec> cval;            // per representative wire
  std::vector<std::int32_t> producer;  // rep wire id -> alive comb comp

  explicit Pipeline(const Design& design, const OptimizeOptions& o)
      : d(design), opts(o) {
    const auto n_wires = static_cast<std::size_t>(d.wire_count());
    out.comp_alive.assign(d.components().size(), 0);
    out.forward.resize(n_wires);
    for (std::size_t i = 0; i < n_wires; ++i) {
      out.forward[i] = static_cast<std::int32_t>(i);
    }
    out.fold_value.assign(n_wires, BitVec{});
    cval.assign(n_wires, BitVec{});
    producer.assign(n_wires, -1);
    for (std::size_t i = 0; i < d.components().size(); ++i) {
      const Component& c = d.components()[i];
      if (is_comb(c.kind)) {
        out.comp_alive[i] = 1;
        producer[static_cast<std::size_t>(c.out.id)] =
            static_cast<std::int32_t>(i);
      } else if (c.kind == CompKind::kConst) {
        cval[static_cast<std::size_t>(c.out.id)] = c.init;
      }
    }
  }

  std::int32_t find(std::int32_t id) {
    std::int32_t root = id;
    while (out.forward[static_cast<std::size_t>(root)] != root) {
      root = out.forward[static_cast<std::size_t>(root)];
    }
    while (out.forward[static_cast<std::size_t>(id)] != id) {
      const std::int32_t next = out.forward[static_cast<std::size_t>(id)];
      out.forward[static_cast<std::size_t>(id)] = root;
      id = next;
    }
    return root;
  }

  Wire resolve(Wire w) {
    if (!w.valid()) return w;
    return Wire{find(w.id), w.width};
  }

  const BitVec& const_of(std::int32_t rep_id) {
    return cval[static_cast<std::size_t>(rep_id)];
  }

  std::int64_t live_ops() const {
    std::int64_t n = 0;
    for (std::size_t i = 0; i < out.comp_alive.size(); ++i) {
      if (out.comp_alive[i] && is_comb(d.components()[i].kind)) ++n;
    }
    return n;
  }

  /// Replaces comp `i`'s output with the constant `v`.
  void fold_to(std::int32_t i, Wire w, BitVec v) {
    out.comp_alive[static_cast<std::size_t>(i)] = 0;
    producer[static_cast<std::size_t>(w.id)] = -1;
    cval[static_cast<std::size_t>(w.id)] = v;
    out.fold_value[static_cast<std::size_t>(w.id)] = std::move(v);
    ++out.report.wires_folded;
  }

  /// Replaces comp `i`'s output with the equal-width wire `target`
  /// (already resolved); the simulator aliases their storage slots.
  void alias_to(std::int32_t i, Wire w, Wire target) {
    ATLANTIS_CHECK(w.width == target.width, "optimizer alias width mismatch");
    out.comp_alive[static_cast<std::size_t>(i)] = 0;
    producer[static_cast<std::size_t>(w.id)] = -1;
    out.forward[static_cast<std::size_t>(w.id)] = target.id;
    ++out.report.wires_aliased;
  }

  // --- pass 1: constant propagation / folding --------------------------
  void fold_pass(OptimizePassStats& stats);
  // --- pass 2: dead-logic elimination ----------------------------------
  std::int64_t dce_sweep();
  // --- pass 3: common-subexpression elimination ------------------------
  void cse_pass(OptimizePassStats& stats);
  // --- pass 4: peephole fusion -----------------------------------------
  void fuse_pass(OptimizePassStats& stats);

  BitVec eval_const(const Component& c, const std::vector<const BitVec*>& in);
};

/// Evaluates one component over constant inputs with BitVec arithmetic.
/// Must match Simulator::eval_comp bit for bit (the differential fuzz
/// suite enforces this).
BitVec Pipeline::eval_const(const Component& c,
                            const std::vector<const BitVec*>& in) {
  switch (c.kind) {
    case CompKind::kNot:
      return ~*in[0];
    case CompKind::kAnd:
      return *in[0] & *in[1];
    case CompKind::kOr:
      return *in[0] | *in[1];
    case CompKind::kXor:
      return *in[0] ^ *in[1];
    case CompKind::kMux:
      return in[0]->bit(0) ? *in[1] : *in[2];
    case CompKind::kMuxN: {
      // The simulator indexes with the select's low word only.
      const std::uint64_t sel = in[0]->to_u64_lossy();
      const std::size_t n = in.size() - 1;
      return *in[1 + std::min<std::uint64_t>(sel, n - 1)];
    }
    case CompKind::kAdd:
      return *in[0] + *in[1];
    case CompKind::kSub:
      return *in[0] - *in[1];
    case CompKind::kEq:
      return BitVec(1, *in[0] == *in[1] ? 1 : 0);
    case CompKind::kUlt:
      return BitVec(1, in[0]->ult(*in[1]) ? 1 : 0);
    case CompKind::kReduceAnd:
      return BitVec(1, *in[0] == BitVec::ones(in[0]->width()) ? 1 : 0);
    case CompKind::kReduceOr:
      return BitVec(1, in[0]->any() ? 1 : 0);
    case CompKind::kReduceXor:
      return BitVec(1, static_cast<std::uint64_t>(in[0]->popcount() & 1));
    case CompKind::kSlice:
      return in[0]->slice(c.a, c.out.width);
    case CompKind::kConcat: {
      BitVec acc = *in[0];
      for (std::size_t k = 1; k < in.size(); ++k) {
        acc = BitVec::concat(acc, *in[k]);
      }
      return acc;
    }
    case CompKind::kShl:
      return in[0]->shl(c.a);
    case CompKind::kShr:
      return in[0]->shr(c.a);
    default:
      throw util::Error("optimizer cannot fold component kind");
  }
}

void Pipeline::fold_pass(OptimizePassStats& stats) {
  const auto& comps = d.components();
  // Creation order is topological for combinational logic (a component's
  // inputs always exist before it; feedback passes through registers
  // only), so one forward scan propagates constants all the way down.
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    if (!is_comb(c.kind) || !out.comp_alive[i]) continue;
    const auto idx = static_cast<std::int32_t>(i);

    std::vector<Wire> rin(c.in.size());
    std::vector<const BitVec*> cin(c.in.size(), nullptr);
    bool all_const = true;
    for (std::size_t k = 0; k < c.in.size(); ++k) {
      rin[k] = resolve(c.in[k]);
      const BitVec& v = const_of(rin[k].id);
      if (v.empty()) {
        all_const = false;
      } else {
        cin[k] = &v;
      }
    }
    if (all_const) {
      fold_to(idx, c.out, eval_const(c, cin));
      ++stats.rewrites;
      continue;
    }

    auto zero = [&](std::size_t k) { return cin[k] != nullptr && !cin[k]->any(); };
    auto ones = [&](std::size_t k) {
      return cin[k] != nullptr && *cin[k] == BitVec::ones(cin[k]->width());
    };
    auto alias = [&](Wire target) {
      alias_to(idx, c.out, target);
      ++stats.rewrites;
    };
    auto fold = [&](BitVec v) {
      fold_to(idx, c.out, std::move(v));
      ++stats.rewrites;
    };

    switch (c.kind) {
      case CompKind::kAnd:
        if (rin[0].id == rin[1].id) alias(rin[0]);
        else if (zero(0) || zero(1)) fold(BitVec(c.out.width));
        else if (ones(0)) alias(rin[1]);
        else if (ones(1)) alias(rin[0]);
        break;
      case CompKind::kOr:
        if (rin[0].id == rin[1].id) alias(rin[0]);
        else if (ones(0) || ones(1)) fold(BitVec::ones(c.out.width));
        else if (zero(0)) alias(rin[1]);
        else if (zero(1)) alias(rin[0]);
        break;
      case CompKind::kXor:
        if (rin[0].id == rin[1].id) fold(BitVec(c.out.width));
        else if (zero(0)) alias(rin[1]);
        else if (zero(1)) alias(rin[0]);
        break;
      case CompKind::kNot: {
        // Double inversion: not(not(x)) -> x.
        const std::int32_t p = producer[static_cast<std::size_t>(rin[0].id)];
        if (p >= 0 && comps[static_cast<std::size_t>(p)].kind == CompKind::kNot) {
          alias(resolve(comps[static_cast<std::size_t>(p)].in[0]));
        }
        break;
      }
      case CompKind::kMux:
        if (cin[0] != nullptr) alias(cin[0]->bit(0) ? rin[1] : rin[2]);
        else if (rin[1].id == rin[2].id) alias(rin[1]);
        break;
      case CompKind::kMuxN:
        if (cin[0] != nullptr) {
          const std::size_t n = c.in.size() - 1;
          const std::uint64_t sel = cin[0]->to_u64_lossy();
          alias(rin[1 + std::min<std::uint64_t>(sel, n - 1)]);
        } else {
          bool same = true;
          for (std::size_t k = 2; k < rin.size() && same; ++k) {
            same = rin[k].id == rin[1].id;
          }
          if (same) alias(rin[1]);
        }
        break;
      case CompKind::kAdd:
        if (zero(0)) alias(rin[1]);
        else if (zero(1)) alias(rin[0]);
        break;
      case CompKind::kSub:
        if (rin[0].id == rin[1].id) fold(BitVec(c.out.width));
        else if (zero(1)) alias(rin[0]);
        break;
      case CompKind::kEq:
        if (rin[0].id == rin[1].id) fold(BitVec(1, 1));
        break;
      case CompKind::kUlt:
        if (rin[0].id == rin[1].id) fold(BitVec(1));
        break;
      case CompKind::kReduceAnd:
      case CompKind::kReduceOr:
      case CompKind::kReduceXor:
        if (rin[0].width == 1) alias(rin[0]);
        break;
      case CompKind::kSlice:
        if (c.a == 0 && c.out.width == rin[0].width) alias(rin[0]);
        break;
      case CompKind::kConcat:
        if (c.in.size() == 1) alias(rin[0]);
        break;
      case CompKind::kShl:
      case CompKind::kShr:
        if (c.a == 0) alias(rin[0]);
        else if (c.a >= c.out.width) fold(BitVec(c.out.width));
        break;
      default:
        break;
    }
  }
}

std::int64_t Pipeline::dce_sweep() {
  const auto& comps = d.components();
  std::vector<std::uint8_t> needed(static_cast<std::size_t>(d.wire_count()), 0);
  std::vector<std::int32_t> stack;
  auto need = [&](Wire w) {
    if (!w.valid()) return;
    const std::int32_t id = find(w.id);
    if (!needed[static_cast<std::size_t>(id)]) {
      needed[static_cast<std::size_t>(id)] = 1;
      stack.push_back(id);
    }
  };
  // Roots: everything architectural state or the outside world observes.
  for (const Component& c : comps) {
    switch (c.kind) {
      case CompKind::kReg:
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
      case CompKind::kOutput:
        for (const Wire w : c.in) need(w);
        break;
      default:
        break;
    }
  }
  for (const Wire w : opts.keep) need(w);

  while (!stack.empty()) {
    const std::int32_t id = stack.back();
    stack.pop_back();
    const std::int32_t p = producer[static_cast<std::size_t>(id)];
    if (p < 0) continue;
    const auto fit = out.fused.find(p);
    if (fit != out.fused.end()) {
      need(fit->second.in0);
      need(fit->second.in1);
    } else {
      for (const Wire w : comps[static_cast<std::size_t>(p)].in) {
        need(resolve(w));
      }
    }
  }

  std::int64_t removed = 0;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    if (!is_comb(c.kind) || !out.comp_alive[i]) continue;
    if (!needed[static_cast<std::size_t>(c.out.id)]) {
      out.comp_alive[i] = 0;
      producer[static_cast<std::size_t>(c.out.id)] = -1;
      out.fused.erase(static_cast<std::int32_t>(i));
      ++removed;
    }
  }
  return removed;
}

void Pipeline::cse_pass(OptimizePassStats& stats) {
  const auto& comps = d.components();
  // Hash-consing table: structural key -> representative output wire.
  struct VecHash {
    std::size_t operator()(const std::vector<std::int64_t>& v) const {
      std::size_t h = 0xcbf29ce484222325ull;
      for (const std::int64_t x : v) {
        h ^= static_cast<std::size_t>(x);
        h *= 0x100000001b3ull;
      }
      return h;
    }
  };
  std::unordered_map<std::vector<std::int64_t>, std::int32_t, VecHash> seen;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    std::vector<std::int64_t> key;
    if (c.kind == CompKind::kConst) {
      // Duplicate constants (same width + value) merge like any other op.
      key.reserve(2 + c.init.words().size());
      key.push_back(static_cast<std::int64_t>(c.kind));
      key.push_back(c.init.width());
      for (const std::uint64_t w : c.init.words()) {
        key.push_back(static_cast<std::int64_t>(w));
      }
    } else if (is_comb(c.kind) && out.comp_alive[i]) {
      key.reserve(3 + c.in.size());
      key.push_back(static_cast<std::int64_t>(c.kind));
      key.push_back(c.a);
      key.push_back(c.out.width);
      std::vector<std::int64_t> ins;
      ins.reserve(c.in.size());
      for (const Wire w : c.in) ins.push_back(find(w.id));
      if (commutative(c.kind)) std::sort(ins.begin(), ins.end());
      key.insert(key.end(), ins.begin(), ins.end());
    } else {
      continue;
    }
    const auto [it, inserted] = seen.emplace(std::move(key), c.out.id);
    if (!inserted) {
      alias_to(static_cast<std::int32_t>(i), c.out,
               Wire{find(it->second), c.out.width});
      ++stats.rewrites;
    }
  }
}

void Pipeline::fuse_pass(OptimizePassStats& stats) {
  const auto& comps = d.components();
  auto single = [&](Wire w) {
    return w.width <= 64;  // one storage word
  };
  // Producer component of a representative wire, but only if that
  // producer is an alive, *unfused* comb op of the wanted kind.
  auto plain_producer_of = [&](Wire w, CompKind kind) -> const Component* {
    const std::int32_t p = producer[static_cast<std::size_t>(w.id)];
    if (p < 0) return nullptr;
    if (out.fused.count(p) != 0) return nullptr;
    const Component& pc = comps[static_cast<std::size_t>(p)];
    return pc.kind == kind ? &pc : nullptr;
  };

  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    if (!is_comb(c.kind) || !out.comp_alive[i]) continue;
    const auto idx = static_cast<std::int32_t>(i);

    std::vector<Wire> rin(c.in.size());
    std::vector<const BitVec*> cin(c.in.size(), nullptr);
    for (std::size_t k = 0; k < c.in.size(); ++k) {
      rin[k] = resolve(c.in[k]);
      const BitVec& v = const_of(rin[k].id);
      if (!v.empty() && v.width() <= 64) cin[k] = &v;
    }
    auto fuse = [&](FusedOp op, Wire in0, Wire in1, std::uint64_t imm) {
      out.fused[idx] = FusedComp{op, in0, in1, imm};
      ++stats.rewrites;
    };
    // Binary op with one constant operand -> immediate form. Returns the
    // non-constant operand index or -1.
    auto imm_side = [&]() -> int {
      if (!single(c.out)) return -1;
      if (cin[0] != nullptr && cin[1] == nullptr && single(rin[1])) return 1;
      if (cin[1] != nullptr && cin[0] == nullptr && single(rin[0])) return 0;
      return -1;
    };

    switch (c.kind) {
      case CompKind::kAnd:
      case CompKind::kOr: {
        const bool is_and = c.kind == CompKind::kAnd;
        const int side = imm_side();
        if (side >= 0) {
          fuse(is_and ? FusedOp::kAndImm : FusedOp::kOrImm,
               rin[static_cast<std::size_t>(side)], Wire{},
               cin[static_cast<std::size_t>(1 - side)]->to_u64_lossy());
          break;
        }
        // and/or over an inverter: absorb the kNot.
        if (!single(c.out)) break;
        for (int k = 1; k >= 0; --k) {
          const auto ks = static_cast<std::size_t>(k);
          const Component* inv = plain_producer_of(rin[ks], CompKind::kNot);
          if (inv == nullptr) continue;
          const Wire src = resolve(inv->in[0]);
          if (!single(src)) continue;
          fuse(is_and ? FusedOp::kAndNot : FusedOp::kOrNot,
               rin[static_cast<std::size_t>(1 - k)], src, 0);
          break;
        }
        break;
      }
      case CompKind::kXor: {
        const int side = imm_side();
        if (side >= 0) {
          fuse(FusedOp::kXorImm, rin[static_cast<std::size_t>(side)], Wire{},
               cin[static_cast<std::size_t>(1 - side)]->to_u64_lossy());
        }
        break;
      }
      case CompKind::kEq: {
        const int side = imm_side();
        if (side >= 0) {
          fuse(FusedOp::kEqImm, rin[static_cast<std::size_t>(side)], Wire{},
               cin[static_cast<std::size_t>(1 - side)]->to_u64_lossy());
        }
        break;
      }
      case CompKind::kNot: {
        // Inverted compare-to-constant: not(eq(x, k)) -> x != k.
        if (c.out.width != 1) break;
        const Component* eq = plain_producer_of(rin[0], CompKind::kEq);
        if (eq == nullptr) break;
        const Wire a = resolve(eq->in[0]);
        const Wire b = resolve(eq->in[1]);
        const BitVec& ca = const_of(a.id);
        const BitVec& cb = const_of(b.id);
        if (!cb.empty() && cb.width() <= 64 && single(a)) {
          fuse(FusedOp::kNeImm, a, Wire{}, cb.to_u64_lossy());
        } else if (!ca.empty() && ca.width() <= 64 && single(b)) {
          fuse(FusedOp::kNeImm, b, Wire{}, ca.to_u64_lossy());
        }
        break;
      }
      case CompKind::kUlt: {
        if (!single(c.out)) break;
        if (cin[1] != nullptr && cin[0] == nullptr && single(rin[0])) {
          fuse(FusedOp::kUltImm, rin[0], Wire{}, cin[1]->to_u64_lossy());
        } else if (cin[0] != nullptr && cin[1] == nullptr && single(rin[1])) {
          fuse(FusedOp::kImmUlt, rin[1], Wire{}, cin[0]->to_u64_lossy());
        }
        break;
      }
      case CompKind::kAdd: {
        const int side = imm_side();
        if (side >= 0) {
          fuse(FusedOp::kAddImm, rin[static_cast<std::size_t>(side)], Wire{},
               cin[static_cast<std::size_t>(1 - side)]->to_u64_lossy());
        }
        break;
      }
      case CompKind::kSub: {
        if (single(c.out) && cin[1] != nullptr && cin[0] == nullptr &&
            single(rin[0])) {
          fuse(FusedOp::kSubImm, rin[0], Wire{}, cin[1]->to_u64_lossy());
        }
        break;
      }
      case CompKind::kSlice: {
        // Slice-of-concat forwarding: a slice landing entirely inside one
        // concat part reads that part directly (zero-pad resize chains
        // collapse this way).
        const Component* cat = plain_producer_of(rin[0], CompKind::kConcat);
        if (cat == nullptr) break;
        int part_lo = 0;  // in[n-1] is the least significant part
        for (std::size_t k = cat->in.size(); k-- > 0;) {
          const Wire part = resolve(cat->in[k]);
          if (c.a >= part_lo && c.a + c.out.width <= part_lo + part.width) {
            const int off = c.a - part_lo;
            if (off == 0 && c.out.width == part.width) {
              alias_to(idx, c.out, part);
              ++stats.rewrites;
            } else if (single(part) && single(c.out)) {
              fuse(FusedOp::kSliceImm, part, Wire{},
                   static_cast<std::uint64_t>(off));
            }
            break;
          }
          part_lo += part.width;
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace

const OptimizePassStats* OptimizeReport::pass(const std::string& name) const {
  for (const auto& p : passes) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::string OptimizeReport::to_string() const {
  std::ostringstream os;
  os << "optimizer: " << ops_before << " -> " << ops_after << " comb ops";
  for (const auto& p : passes) {
    os << "; " << p.name << " " << p.ops_before << "->" << p.ops_after << " ("
       << p.rewrites << " rewrites)";
  }
  os << "; " << wires_aliased << " wires aliased, " << wires_folded
     << " folded";
  return os.str();
}

OptimizedNetlist optimize(const Design& design, const OptimizeOptions& opts) {
  Pipeline p(design, opts);
  OptimizeReport& rep = p.out.report;
  rep.ops_before = p.live_ops();

  auto run = [&](const char* name, bool enabled, auto&& body) {
    OptimizePassStats s;
    s.name = name;
    s.ops_before = p.live_ops();
    if (enabled) body(s);
    s.ops_after = p.live_ops();
    rep.passes.push_back(std::move(s));
  };

  run("fold", opts.fold, [&](OptimizePassStats& s) { p.fold_pass(s); });
  run("dce", opts.dce, [&](OptimizePassStats& s) { s.rewrites = p.dce_sweep(); });
  run("cse", opts.cse, [&](OptimizePassStats& s) { p.cse_pass(s); });
  run("fuse", opts.fuse, [&](OptimizePassStats& s) {
    p.fuse_pass(s);
    // Fusion bypasses inverters / compares / concats; sweep whatever is
    // now unconsumed so the tape doesn't dispatch orphans.
    if (opts.dce) p.dce_sweep();
  });

  rep.ops_after = p.live_ops();

  // Flatten forwarding chains so consumers can resolve in one step.
  for (std::int32_t w = 0; w < design.wire_count(); ++w) p.find(w);
  return std::move(p.out);
}

}  // namespace atlantis::chdl
