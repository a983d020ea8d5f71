// State-machine definition API.
//
// CHDL's second design-entry style (besides structural netlists) is the
// state machine. States and guarded transitions are declared in C++, and
// build() compiles them to a one-hot register bank plus next-state logic.
// Transitions declared earlier take priority when several guards are true
// in the same cycle; a state with no true outgoing guard holds.
#pragma once

#include <string>
#include <vector>

#include "chdl/design.hpp"

namespace atlantis::chdl {

/// Handle to a declared state.
struct StateId {
  std::int32_t id = -1;
  bool valid() const { return id >= 0; }
};

class Fsm {
 public:
  /// States and transitions are declared first; build() creates hardware.
  Fsm(Design& design, std::string name, ClockId clock = {});

  /// Declares a state; the first declared state is the reset state unless
  /// set_initial overrides it.
  StateId state(const std::string& name);

  /// Declares a guarded transition. `guard` must be a 1-bit wire.
  void transition(StateId from, StateId to, Wire guard);

  /// Declares an unconditional transition (taken unless an earlier guard
  /// from the same state fires).
  void always(StateId from, StateId to);

  void set_initial(StateId s);

  /// Compiles to hardware. After build():
  ///  - active(s) is a 1-bit wire, high while the FSM is in s,
  ///  - encoded() is the binary state number.
  void build();

  Wire active(StateId s) const;
  Wire encoded() const;

 private:
  struct Transition {
    StateId from;
    StateId to;
    Wire guard;  // invalid => unconditional
  };

  Design& design_;
  std::string name_;
  ClockId clock_;
  std::vector<std::string> states_;
  std::vector<Transition> transitions_;
  StateId initial_{0};
  std::vector<Wire> active_;  // one-hot register outputs, set by build()
  Wire encoded_{};
  bool built_ = false;
};

}  // namespace atlantis::chdl
