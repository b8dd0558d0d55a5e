#include "src/rtl/rtl_module.h"

#include <cassert>

#include "src/ir/opcode_info.h"
#include "src/support/check.h"

namespace efeu::rtl {

RtlModule::RtlModule(const ir::Module* module, std::string instance_name)
    : module_(module), name_(std::move(instance_name)), segmentation_(ir::SegmentModule(*module)) {
  ports_.resize(module->ports.size());
  for (size_t p = 0; p < ports_.size(); ++p) {
    int words = module->ports[p].channel->flat_size;
    ports_[p].out_data.assign(words, 0);
  }
  Reset();
}

void RtlModule::BindPort(int port, HsWire* wire) {
  EFEU_CHECK(port >= 0 && port < static_cast<int>(ports_.size()),
             "BindPort: port id out of range (channel not used by this layer?)");
  ports_[port].wire = wire;
  published_ = false;
}

void RtlModule::Reset() {
  frame_.assign(module_->frame_size, 0);
  segment_ = 0;
  in_recv_deassert_ = false;
  halted_ = false;
  published_ = false;
  busy_cycles_ = 0;
  for (PortState& port : ports_) {
    port.out_valid = false;
    port.out_ready = false;
    std::fill(port.out_data.begin(), port.out_data.end(), 0);
  }
}

// Updates the frame, the FSM state and the registered outputs in place: no
// peer reads them during the edge, only the wires Commit writes.
void RtlModule::Evaluate() {
  if (halted_) {
    return;
  }

  const ir::Segment& segment = segmentation_.segments[segment_];
  const ir::Block& block = module_->blocks[segment.block];

  if (in_recv_deassert_) {
    // De-assert-ready state after a receive.
    ports_[segment.port].out_ready = false;
    published_ = false;
    in_recv_deassert_ = false;
    ++segment_;  // Blocking insts never end a block.
    ++busy_cycles_;
    return;
  }

  // The segment's plain instructions (blocking assignments). For a segment
  // ended by a handshake the body must run exactly once — on the entry
  // cycle, when the registered valid/ready is still low — and not again on
  // the wait or completion cycles; re-running it every cycle repeats its
  // side effects (found by differential fuzzing: `v = v + 14;` before a
  // talk incremented once per wait cycle). Mirrors the generated Verilog.
  auto run_body = [&]() {
    for (int i = segment.first; i < segment.last; ++i) {
      const ir::Inst& inst = block.insts[i];
      switch (inst.op) {
        case ir::Opcode::kConst:
          frame_[inst.dst] = inst.type.Truncate(inst.imm);
          break;
        case ir::Opcode::kCopy:
          frame_[inst.dst] = inst.type.Truncate(frame_[inst.a]);
          break;
        case ir::Opcode::kUnOp:
          frame_[inst.dst] = ir::EvalUnOp(inst.unop, frame_[inst.a]);
          break;
        case ir::Opcode::kBinOp:
          frame_[inst.dst] = ir::EvalBinOpTotal(inst.binop, frame_[inst.a], frame_[inst.b]);
          break;
        case ir::Opcode::kLoadIdx: {
          int32_t index = frame_[inst.b];
          frame_[inst.dst] =
              (index >= 0 && index < inst.imm) ? inst.type.Truncate(frame_[inst.a + index]) : 0;
          break;
        }
        case ir::Opcode::kStoreIdx: {
          int32_t index = frame_[inst.b];
          if (index >= 0 && index < inst.imm) {
            frame_[inst.dst + index] = inst.type.Truncate(frame_[inst.a]);
          }
          break;
        }
        case ir::Opcode::kAssert:
        case ir::Opcode::kNondet:
          // Checked by the model checker; not synthesizable behaviour.
          break;
        default:
          assert(false && "unexpected instruction in segment body");
          break;
      }
    }
  };

  if (segment.ender < 0) {
    run_body();
    ++segment_;
    ++busy_cycles_;
    return;
  }

  const ir::Inst& inst = block.insts[segment.ender];
  switch (inst.op) {
    case ir::Opcode::kSend: {
      PortState& port = ports_[inst.port];
      assert(port.wire != nullptr);
      if (port.out_valid && port.wire->ready) {
        // Transfer edge: both registered flags were visible this cycle.
        port.out_valid = false;
        published_ = false;
        ++segment_;
        ++busy_cycles_;
      } else if (!port.out_valid) {
        // Entry cycle: run the body once, stage the data, raise valid.
        run_body();
        for (int w = 0; w < inst.count; ++w) {
          port.out_data[w] = frame_[inst.a + w];
        }
        port.out_valid = true;
        published_ = false;
      }
      break;
    }
    case ir::Opcode::kRecv: {
      PortState& port = ports_[inst.port];
      assert(port.wire != nullptr);
      if (port.out_ready && port.wire->valid) {
        for (int w = 0; w < inst.count; ++w) {
          frame_[inst.dst + w] = port.wire->data[w];
        }
        in_recv_deassert_ = true;
        ++busy_cycles_;
      } else if (!port.out_ready) {
        // Entry cycle: body once, then raise ready and wait.
        run_body();
        port.out_ready = true;
        published_ = false;
      }
      break;
    }
    case ir::Opcode::kJump:
      run_body();
      segment_ = segmentation_.block_entry[inst.target];
      ++busy_cycles_;
      break;
    case ir::Opcode::kBranch:
      run_body();
      segment_ = frame_[inst.a] != 0 ? segmentation_.block_entry[inst.target]
                                    : segmentation_.block_entry[inst.target2];
      ++busy_cycles_;
      break;
    case ir::Opcode::kHalt:
      run_body();
      halted_ = true;
      break;
    default:
      assert(false && "unexpected segment ender");
      break;
  }
}

bool RtlModule::WiresShowOutputs() const {
  for (size_t p = 0; p < ports_.size(); ++p) {
    const PortState& port = ports_[p];
    if (port.wire == nullptr) {
      continue;
    }
    if (module_->ports[p].is_send) {
      if (port.wire->valid != port.out_valid || port.wire->data != port.out_data) {
        return false;
      }
    } else if (port.wire->ready != port.out_ready) {
      return false;
    }
  }
  return true;
}

uint64_t RtlModule::IdleCycles() const {
  // Every bound wire must already show what Commit() would publish again.
  if (!published_) {
    return 0;
  }
  assert(WiresShowOutputs());
  if (halted_) {
    return kIdleForever;
  }
  if (in_recv_deassert_) {
    return 0;
  }
  // Parked on a handshake: valid (or ready) raised, the peer's flag still
  // low. Every other segment does work on its next edge.
  const ir::Segment& segment = segmentation_.segments[segment_];
  if (segment.port < 0) {
    return 0;
  }
  const PortState& port = ports_[segment.port];
  if (port.wire == nullptr) {
    return 0;
  }
  if (segment.is_send) {
    return port.out_valid && !port.wire->ready ? kIdleForever : 0;
  }
  return port.out_ready && !port.wire->valid ? kIdleForever : 0;
}

void RtlModule::Commit() {
  if (published_) {
    assert(WiresShowOutputs());
    return;
  }
  for (size_t p = 0; p < ports_.size(); ++p) {
    const PortState& port = ports_[p];
    if (port.wire == nullptr) {
      continue;
    }
    if (module_->ports[p].is_send) {
      port.wire->valid = port.out_valid;
      port.wire->data = port.out_data;
    } else {
      port.wire->ready = port.out_ready;
    }
  }
  published_ = true;
}

}  // namespace efeu::rtl
