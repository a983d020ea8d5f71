#include "chdl/export.hpp"

#include <sstream>
#include <vector>

namespace atlantis::chdl {

const char* comp_kind_name(CompKind kind) {
  switch (kind) {
    case CompKind::kConst:
      return "const";
    case CompKind::kNot:
      return "not";
    case CompKind::kAnd:
      return "and";
    case CompKind::kOr:
      return "or";
    case CompKind::kXor:
      return "xor";
    case CompKind::kMux:
      return "mux";
    case CompKind::kMuxN:
      return "muxn";
    case CompKind::kAdd:
      return "add";
    case CompKind::kSub:
      return "sub";
    case CompKind::kEq:
      return "eq";
    case CompKind::kUlt:
      return "ult";
    case CompKind::kReduceAnd:
      return "rand";
    case CompKind::kReduceOr:
      return "ror";
    case CompKind::kReduceXor:
      return "rxor";
    case CompKind::kSlice:
      return "slice";
    case CompKind::kConcat:
      return "concat";
    case CompKind::kShl:
      return "shl";
    case CompKind::kShr:
      return "shr";
    case CompKind::kReg:
      return "reg";
    case CompKind::kRamRead:
      return "ram_read";
    case CompKind::kRamWrite:
      return "ram_write";
    case CompKind::kInput:
      return "input";
    case CompKind::kOutput:
      return "output";
  }
  return "?";
}

namespace {

/// Both netlist exporters; `opt` == nullptr prints the design as
/// elaborated.
std::string write_netlist(const Design& d, const OptimizedNetlist* opt) {
  std::ostringstream os;
  os << "design " << d.name() << (opt != nullptr ? " (optimized)" : "")
     << "\n";
  for (const RamBlock& r : d.rams()) {
    os << (r.writable ? "ram " : "rom ") << r.name << " : " << r.words << " x "
       << r.width << " @" << d.clock_name(ClockId{r.clock}) << "\n";
  }
  for (const Component& c : d.components()) {
    if (opt != nullptr && c.out.valid()) {
      const auto id = static_cast<std::size_t>(c.out.id);
      if (opt->folded(c.out.id)) {
        os << "%" << c.out.id << " = const(0b"
           << opt->fold_value[id].to_binary() << ") : " << c.out.width
           << " ; folded " << comp_kind_name(c.kind) << "\n";
        continue;
      }
      if (opt->forward[id] != c.out.id) {
        os << "%" << c.out.id << " -> %" << opt->forward[id] << " ; alias "
           << comp_kind_name(c.kind) << "\n";
        continue;
      }
    }
    if (c.out.valid()) {
      os << "%" << c.out.id << " = ";
    }
    os << comp_kind_name(c.kind) << "(";
    bool first = true;
    for (const Wire w : c.in) {
      if (!first) os << ", ";
      first = false;
      if (w.valid()) {
        os << "%" << (opt != nullptr ? opt->rep(w).id : w.id);
      } else {
        os << "_";
      }
    }
    switch (c.kind) {
      case CompKind::kSlice:
        os << (first ? "" : ", ") << "lo=" << c.a;
        break;
      case CompKind::kShl:
      case CompKind::kShr:
        os << (first ? "" : ", ") << "n=" << c.a;
        break;
      case CompKind::kConst:
        os << "0b" << c.init.to_binary();
        break;
      case CompKind::kRamRead:
      case CompKind::kRamWrite:
        os << (first ? "" : ", ") << "ram=" << c.ram;
        break;
      default:
        break;
    }
    os << ")";
    if (c.out.valid()) os << " : " << c.out.width;
    if (!c.name.empty()) os << " \"" << c.name << "\"";
    if (c.kind == CompKind::kReg || c.kind == CompKind::kRamRead ||
        c.kind == CompKind::kRamWrite) {
      os << " @" << d.clock_name(ClockId{c.clock});
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace

std::string export_netlist(const Design& d) { return write_netlist(d, nullptr); }

std::string export_netlist(const Design& d, const OptimizedNetlist& opt) {
  return write_netlist(d, &opt);
}

std::string export_dot(const Design& d) {
  std::ostringstream os;
  os << "digraph \"" << d.name() << "\" {\n  rankdir=LR;\n";
  const auto& comps = d.components();
  // Producer component of each wire, for edge drawing.
  std::vector<std::int32_t> producer(static_cast<std::size_t>(d.wire_count()),
                                     -1);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comps.size()); ++i) {
    if (comps[static_cast<std::size_t>(i)].out.valid()) {
      producer[static_cast<std::size_t>(
          comps[static_cast<std::size_t>(i)].out.id)] = i;
    }
  }
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(comps.size()); ++i) {
    const Component& c = comps[static_cast<std::size_t>(i)];
    const char* shape = "ellipse";
    if (c.kind == CompKind::kReg || c.kind == CompKind::kRamRead ||
        c.kind == CompKind::kRamWrite) {
      shape = "box";
    } else if (c.kind == CompKind::kInput || c.kind == CompKind::kOutput) {
      shape = "diamond";
    }
    std::string label = comp_kind_name(c.kind);
    if (!c.name.empty()) label += "\\n" + c.name;
    os << "  n" << i << " [shape=" << shape << ", label=\"" << label
       << "\"];\n";
    for (const Wire w : c.in) {
      if (!w.valid()) continue;
      const std::int32_t p = producer[static_cast<std::size_t>(w.id)];
      if (p >= 0) {
        os << "  n" << p << " -> n" << i << " [label=\"" << w.width
           << "\"];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace atlantis::chdl
