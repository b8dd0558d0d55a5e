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
    ports_[p].next_data.assign(words, 0);
  }
  Reset();
}

void RtlModule::BindPort(int port, HsWire* wire) {
  EFEU_CHECK(port >= 0 && port < static_cast<int>(ports_.size()),
             "BindPort: port id out of range (channel not used by this layer?)");
  ports_[port].wire = wire;
}

void RtlModule::Reset() {
  frame_.assign(module_->frame_size, 0);
  next_frame_ = frame_;
  segment_ = 0;
  in_recv_deassert_ = false;
  next_segment_ = 0;
  next_in_recv_deassert_ = false;
  halted_ = false;
  busy_cycles_ = 0;
  for (PortState& port : ports_) {
    port.out_valid = false;
    port.out_ready = false;
    std::fill(port.out_data.begin(), port.out_data.end(), 0);
    port.next_valid = false;
    port.next_ready = false;
    std::fill(port.next_data.begin(), port.next_data.end(), 0);
  }
}

void RtlModule::Evaluate() {
  // Stage defaults: hold previous values.
  next_frame_ = frame_;
  next_segment_ = segment_;
  next_in_recv_deassert_ = in_recv_deassert_;
  for (PortState& port : ports_) {
    port.next_valid = port.out_valid;
    port.next_ready = port.out_ready;
    port.next_data = port.out_data;
  }
  if (halted_) {
    return;
  }

  const ir::Segment& segment = segmentation_.segments[segment_];
  const ir::Block& block = module_->blocks[segment.block];

  if (in_recv_deassert_) {
    // De-assert-ready state after a receive.
    const ir::Inst& inst = block.insts[segment.ender];
    ports_[inst.port].next_ready = false;
    next_in_recv_deassert_ = false;
    next_segment_ = segment_ + 1;  // Blocking insts never end a block.
    ++busy_cycles_;
    return;
  }

  // The segment's plain instructions (blocking assignments). For a segment
  // ended by a handshake the body must run exactly once — on the entry
  // cycle, when the registered valid/ready is still low — and not again on
  // the wait or completion cycles; re-running it every cycle repeats its
  // side effects (found by differential fuzzing: `v = v + 14;` before a
  // talk incremented once per wait cycle). Mirrors the generated Verilog.
  auto& frame = next_frame_;
  auto run_body = [&]() {
    for (int i = segment.first; i < segment.last; ++i) {
      const ir::Inst& inst = block.insts[i];
      switch (inst.op) {
        case ir::Opcode::kConst:
          frame[inst.dst] = inst.type.Truncate(inst.imm);
          break;
        case ir::Opcode::kCopy:
          frame[inst.dst] = inst.type.Truncate(frame[inst.a]);
          break;
        case ir::Opcode::kUnOp:
          frame[inst.dst] = ir::EvalUnOp(inst.unop, frame[inst.a]);
          break;
        case ir::Opcode::kBinOp:
          frame[inst.dst] = ir::EvalBinOpTotal(inst.binop, frame[inst.a], frame[inst.b]);
          break;
        case ir::Opcode::kLoadIdx: {
          int32_t index = frame[inst.b];
          frame[inst.dst] =
              (index >= 0 && index < inst.imm) ? inst.type.Truncate(frame[inst.a + index]) : 0;
          break;
        }
        case ir::Opcode::kStoreIdx: {
          int32_t index = frame[inst.b];
          if (index >= 0 && index < inst.imm) {
            frame[inst.dst + index] = inst.type.Truncate(frame[inst.a]);
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
    next_segment_ = segment_ + 1;
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
        port.next_valid = false;
        next_segment_ = segment_ + 1;
        ++busy_cycles_;
      } else if (!port.out_valid) {
        // Entry cycle: run the body once, stage the data, raise valid.
        run_body();
        for (int w = 0; w < inst.count; ++w) {
          port.next_data[w] = frame[inst.a + w];
        }
        port.next_valid = true;
      }
      break;
    }
    case ir::Opcode::kRecv: {
      PortState& port = ports_[inst.port];
      assert(port.wire != nullptr);
      if (port.out_ready && port.wire->valid) {
        for (int w = 0; w < inst.count; ++w) {
          frame[inst.dst + w] = port.wire->data[w];
        }
        next_in_recv_deassert_ = true;
        ++busy_cycles_;
      } else if (!port.out_ready) {
        // Entry cycle: body once, then raise ready and wait.
        run_body();
        port.next_ready = true;
      }
      break;
    }
    case ir::Opcode::kJump:
      run_body();
      next_segment_ = segmentation_.block_entry[inst.target];
      ++busy_cycles_;
      break;
    case ir::Opcode::kBranch:
      run_body();
      next_segment_ = frame[inst.a] != 0 ? segmentation_.block_entry[inst.target]
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

uint64_t RtlModule::IdleCycles() const {
  // Every bound wire must already show what Commit() would publish again.
  for (size_t p = 0; p < ports_.size(); ++p) {
    const PortState& port = ports_[p];
    if (port.wire == nullptr) {
      continue;
    }
    if (module_->ports[p].is_send) {
      if (port.wire->valid != port.out_valid || port.wire->data != port.out_data) {
        return 0;
      }
    } else if (port.wire->ready != port.out_ready) {
      return 0;
    }
  }
  if (halted_) {
    return kIdleForever;
  }
  if (in_recv_deassert_) {
    return 0;
  }
  const ir::Segment& segment = segmentation_.segments[segment_];
  if (segment.ender < 0) {
    return 0;
  }
  // Parked on a handshake: valid (or ready) raised, the peer's flag still
  // low. Every other segment does work on its next edge.
  const ir::Inst& inst = module_->blocks[segment.block].insts[segment.ender];
  if (inst.op != ir::Opcode::kSend && inst.op != ir::Opcode::kRecv) {
    return 0;
  }
  const PortState& port = ports_[inst.port];
  if (port.wire == nullptr) {
    return 0;
  }
  if (inst.op == ir::Opcode::kSend) {
    return port.out_valid && !port.wire->ready ? kIdleForever : 0;
  }
  return port.out_ready && !port.wire->valid ? kIdleForever : 0;
}

void RtlModule::Commit() {
  frame_ = next_frame_;
  segment_ = next_segment_;
  in_recv_deassert_ = next_in_recv_deassert_;
  for (PortState& port : ports_) {
    if (port.wire == nullptr) {
      port.out_valid = port.next_valid;
      port.out_ready = port.next_ready;
      port.out_data = port.next_data;
      continue;
    }
    bool is_send = module_->ports[&port - ports_.data()].is_send;
    port.out_valid = port.next_valid;
    port.out_ready = port.next_ready;
    port.out_data = port.next_data;
    if (is_send) {
      port.wire->valid = port.out_valid;
      port.wire->data = port.out_data;
    } else {
      port.wire->ready = port.out_ready;
    }
  }
}

}  // namespace efeu::rtl
