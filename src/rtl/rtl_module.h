// Cycle-accurate execution of one generated layer FSM, exactly matching the
// semantics of the Verilog the backend emits: one segment of straight-line
// instructions per clock, ready/valid handshakes taking the same edges.

#ifndef SRC_RTL_RTL_MODULE_H_
#define SRC_RTL_RTL_MODULE_H_

#include <span>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/ir/segment.h"
#include "src/rtl/component.h"

namespace efeu::rtl {

class RtlModule : public RtlComponent {
 public:
  RtlModule(const ir::Module* module, std::string instance_name);

  // Binds IR port `port` to a wire. Send ports drive data/valid and sample
  // ready; receive ports sample data/valid and drive ready. Every port must
  // be bound before the first clock.
  void BindPort(int port, HsWire* wire);

  void Evaluate() override;
  void Commit() override;
  // Idle while halted or parked on a handshake whose peer has not answered.
  uint64_t IdleCycles() const override;

  const std::string& name() const { return name_; }
  const ir::Module& module() const { return *module_; }
  // True once the FSM executed kHalt (it then holds its state forever).
  bool halted() const { return halted_; }
  // Cumulative clock cycles in which the FSM did useful (non-waiting) work.
  uint64_t busy_cycles() const { return busy_cycles_; }
  // Frame contents between edges (differential comparison against the
  // VM/checker frames; layouts are identical because both execute the same
  // ir::Module).
  std::span<const int32_t> frame() const { return frame_; }

  void Reset();

 private:
  struct PortState {
    HsWire* wire = nullptr;
    // Registered outputs. Evaluate updates them in place and Commit
    // publishes them to the wire, which is all a peer ever reads.
    bool out_valid = false;
    bool out_ready = false;
    std::vector<int32_t> out_data;
  };

  const ir::Module* module_;
  std::string name_;
  ir::Segmentation segmentation_;
  std::vector<PortState> ports_;
  std::vector<int32_t> frame_;
  int segment_ = 0;
  // True while in the extra de-assert-ready state after a receive.
  bool in_recv_deassert_ = false;
  bool halted_ = false;
  uint64_t busy_cycles_ = 0;
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_RTL_MODULE_H_
