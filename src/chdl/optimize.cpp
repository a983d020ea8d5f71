#include "chdl/optimize.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/fnv.hpp"
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
  OptimizedNetlist out;
  std::vector<std::uint8_t> alive;     // per component: comb and on the tape
  std::vector<BitVec> cval;            // per representative wire
  std::vector<std::int32_t> producer;  // rep wire id -> alive comb comp

  explicit Pipeline(const Design& design) : d(design) {
    const auto n_wires = static_cast<std::size_t>(d.wire_count());
    alive.assign(d.components().size(), 0);
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
        alive[i] = 1;
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
    return std::count(alive.begin(), alive.end(), std::uint8_t{1});
  }

  /// Replaces comp `i`'s output with the constant `v`.
  void fold_to(std::int32_t i, Wire w, BitVec v) {
    alive[static_cast<std::size_t>(i)] = 0;
    producer[static_cast<std::size_t>(w.id)] = -1;
    cval[static_cast<std::size_t>(w.id)] = v;
    out.fold_value[static_cast<std::size_t>(w.id)] = std::move(v);
    ++out.report.wires_folded;
  }

  /// Replaces comp `i`'s output with the equal-width wire `target`
  /// (already resolved); the simulator aliases their storage slots.
  void alias_to(std::int32_t i, Wire w, Wire target) {
    ATLANTIS_CHECK(w.width == target.width, "optimizer alias width mismatch");
    alive[static_cast<std::size_t>(i)] = 0;
    producer[static_cast<std::size_t>(w.id)] = -1;
    out.forward[static_cast<std::size_t>(w.id)] = target.id;
    ++out.report.wires_aliased;
  }

  // --- pass 1: constant propagation / folding --------------------------
  void fold_pass(OptimizePassStats& stats);
  // --- pass 2: common-subexpression elimination ------------------------
  void cse_pass(OptimizePassStats& stats);

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
    if (!alive[i]) continue;
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

void Pipeline::cse_pass(OptimizePassStats& stats) {
  const auto& comps = d.components();
  // Hash-consing table: structural key -> representative output wire.
  struct VecHash {
    std::size_t operator()(const std::vector<std::int64_t>& v) const {
      util::Fnv h;
      for (const std::int64_t x : v) h.mix(static_cast<std::uint64_t>(x));
      return static_cast<std::size_t>(h.h);
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
    } else if (alive[i]) {
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

OptimizedNetlist optimize(const Design& design) {
  Pipeline p(design);
  OptimizeReport& rep = p.out.report;
  rep.ops_before = p.live_ops();

  auto run = [&](const char* name, auto&& body) {
    OptimizePassStats s;
    s.name = name;
    s.ops_before = p.live_ops();
    body(s);
    s.ops_after = p.live_ops();
    rep.passes.push_back(std::move(s));
  };

  run("fold", [&](OptimizePassStats& s) { p.fold_pass(s); });
  run("cse", [&](OptimizePassStats& s) { p.cse_pass(s); });

  rep.ops_after = p.live_ops();

  // Flatten forwarding chains so consumers can resolve in one step.
  for (std::int32_t w = 0; w < design.wire_count(); ++w) p.find(w);
  return std::move(p.out);
}

}  // namespace atlantis::chdl
