// CHDL structural design entry.
//
// A Design is a netlist of typed components connected by Wires. As in the
// original CHDL (Kornmesser et al., PACT'98), the netlist is produced by
// ordinary C++ code — loops, functions and classes generate structure —
// and the very same application program later drives the simulation, so
// no separate hardware test bench is ever written.
//
// Usage sketch:
//   Design d("histogrammer");
//   Wire hit  = d.input("hit", 1);
//   Wire bits = d.rom_lookup(...);
//   Wire cnt  = d.reg("cnt", d.add(cnt_q, one), {.enable = hit});
//   d.output("count", cnt);
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chdl/bitvec.hpp"
#include "util/status.hpp"

namespace atlantis::chdl {

/// Handle to a net in the design: an index plus its width. Cheap to copy;
/// only valid for the Design that created it.
struct Wire {
  std::int32_t id = -1;
  std::int32_t width = 0;
  bool valid() const { return id >= 0; }
};

/// Identifies one of the design's clock domains.
struct ClockId {
  std::int32_t id = 0;
};

/// Component kinds. Combinational kinds are evaluated in creation
/// (topological) order; Reg and Ram latch on clock edges.
enum class CompKind : std::uint8_t {
  kConst,
  kNot,
  kAnd,
  kOr,
  kXor,
  kMux,        // in[0]=sel (1 bit), in[1]=if1, in[2]=if0
  kMuxN,       // in[0]=sel, in[1..]=choices (sel indexes, clamped)
  kAdd,
  kSub,
  kEq,         // 1-bit out
  kUlt,        // unsigned less-than, 1-bit out
  kReduceAnd,
  kReduceOr,
  kReduceXor,
  kSlice,      // params: a=lo
  kConcat,     // in[0]=hi ... in[n-1]=lo, MSB-first
  kShl,        // params: a=amount (constant shift)
  kShr,
  kReg,        // in[0]=d, optional in[1]=enable, in[2]=sync reset
  kRamRead,    // sync read port: in[0]=addr, optional in[1]=read enable
  kRamWrite,   // write port: in[0]=addr, in[1]=data, in[2]=we (no output)
  kInput,
  kOutput,     // in[0]=value (no new net; out aliases for bookkeeping)
};

/// One netlist component.
struct Component {
  CompKind kind = CompKind::kConst;
  std::vector<Wire> in;
  Wire out;                 // invalid for kRamWrite/kOutput
  std::int32_t a = 0;       // kind-specific parameter (slice lo, shift, ...)
  std::int32_t ram = -1;    // RAM index for kRamRead/kRamWrite
  std::int32_t clock = 0;   // clock domain for sequential kinds
  BitVec init;              // kConst value / kReg initial value
  std::string name;         // hierarchical instance name
};

/// A RAM/ROM block. Read ports have one-cycle latency (synchronous SRAM
/// semantics, matching the memory the ATLANTIS mezzanines carry).
struct RamBlock {
  std::string name;
  std::int64_t words = 0;
  std::int32_t width = 0;
  std::int32_t clock = 0;
  bool writable = true;     // false => ROM
  std::vector<BitVec> init; // optional initial contents (ROM image)
};

/// Options for registers.
struct RegOpts {
  ClockId clock{};
  Wire enable{};     // optional active-high clock enable
  Wire reset{};      // optional synchronous reset (to `init`)
  BitVec init{};     // power-up / reset value; defaults to zero
};

/// A complete structural design plus its named ports.
class Design {
 public:
  explicit Design(std::string name) : name_(std::move(name)) {
    clock_names_.push_back("clk");
  }

  const std::string& name() const { return name_; }

  // --- Clocks -------------------------------------------------------------
  /// Declares an additional clock domain (domain 0 "clk" always exists).
  ClockId add_clock(const std::string& name);
  int clock_count() const { return static_cast<int>(clock_names_.size()); }
  const std::string& clock_name(ClockId c) const {
    return clock_names_.at(static_cast<std::size_t>(c.id));
  }

  // --- Ports --------------------------------------------------------------
  Wire input(const std::string& name, int width);
  void output(const std::string& name, Wire value);
  /// Looks up a named port; throws if absent.
  Wire port(const std::string& name) const;
  bool has_port(const std::string& name) const;

  // --- Combinational primitives -------------------------------------------
  Wire constant(const BitVec& value);
  Wire constant(int width, std::uint64_t value) {
    return constant(BitVec(width, value));
  }
  Wire bnot(Wire a);
  Wire band(Wire a, Wire b);
  Wire bor(Wire a, Wire b);
  Wire bxor(Wire a, Wire b);
  Wire mux(Wire sel, Wire if1, Wire if0);
  /// sel selects among `choices` (index clamped to the last entry).
  Wire muxn(Wire sel, const std::vector<Wire>& choices);
  Wire add(Wire a, Wire b);
  Wire sub(Wire a, Wire b);
  Wire eq(Wire a, Wire b);
  Wire ult(Wire a, Wire b);
  Wire reduce_and(Wire a);
  Wire reduce_or(Wire a);
  Wire reduce_xor(Wire a);
  Wire slice(Wire a, int lo, int width);
  Wire bit(Wire a, int i) { return slice(a, i, 1); }
  /// MSB-first concatenation.
  Wire concat(const std::vector<Wire>& parts);
  Wire shl(Wire a, int amount);
  Wire shr(Wire a, int amount);
  /// Zero-extends (or truncates) to `width`.
  Wire resize(Wire a, int width);

  // --- Sequential primitives ----------------------------------------------
  Wire reg(const std::string& name, Wire d, const RegOpts& opts = {});

  /// Forward-declared register for feedback paths (counters, FSMs):
  /// returns Q immediately; connect D later with reg_connect.
  Wire reg_forward(const std::string& name, int width,
                   const RegOpts& opts = {});
  /// Binds the D input of a register created by reg_forward.
  void reg_connect(Wire q, Wire d);
  /// Throws if any forward-declared register is still unconnected.
  void check_complete() const;

  /// Declares a RAM block; returns its index for port attachment.
  int add_ram(const std::string& name, std::int64_t words, int width,
              ClockId clock = {});
  /// Declares a ROM with fixed contents.
  int add_rom(const std::string& name, std::vector<BitVec> contents,
              ClockId clock = {});
  /// Synchronous read port: data valid one cycle after `addr`.
  Wire ram_read(int ram, Wire addr, Wire enable = {});
  /// Synchronous write port.
  void ram_write(int ram, Wire addr, Wire data, Wire we);

  // --- Naming scopes --------------------------------------------------
  /// Pushes a hierarchy level; names of components created inside are
  /// prefixed "scope/". RAII helper: Scope.
  void push_scope(const std::string& name);
  void pop_scope();

  class Scope {
   public:
    Scope(Design& d, const std::string& name) : d_(d) { d_.push_scope(name); }
    ~Scope() { d_.pop_scope(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Design& d_;
  };

  // --- Introspection --------------------------------------------------
  const std::vector<Component>& components() const { return comps_; }
  const std::vector<RamBlock>& rams() const { return rams_; }
  int wire_count() const { return next_wire_; }
  int wire_width(std::int32_t id) const {
    return wire_widths_.at(static_cast<std::size_t>(id));
  }
  const std::vector<std::pair<std::string, Wire>>& inputs() const {
    return inputs_;
  }
  const std::vector<std::pair<std::string, Wire>>& outputs() const {
    return outputs_;
  }

 private:
  Wire new_wire(int width);
  Wire add_comp(CompKind kind, std::vector<Wire> in, int out_width,
                std::int32_t a = 0);
  std::string scoped_name(const std::string& base) const;
  void check_wire(Wire w) const;

  std::string name_;
  std::vector<Component> comps_;
  // Interning pool: (width, value words) -> existing kConst wire id.
  std::map<std::pair<int, std::vector<std::uint64_t>>, std::int32_t>
      const_pool_;
  std::vector<RamBlock> rams_;
  std::vector<int> wire_widths_;
  std::vector<std::pair<std::string, Wire>> inputs_;
  std::vector<std::pair<std::string, Wire>> outputs_;
  std::vector<std::string> clock_names_;
  std::vector<std::string> scope_;
  std::int32_t next_wire_ = 0;
};

}  // namespace atlantis::chdl
