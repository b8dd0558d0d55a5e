#include "src/driver/resources.h"

#include <cmath>
#include <cstdio>

#include "src/ir/segment.h"

namespace efeu::driver {

namespace {

// Calibration coefficients (see EXPERIMENTS.md).
constexpr double kFfScale = 0.43;   // Vivado trims unused high-order bits
constexpr double kLutScale = 0.40;  // cross-module optimization headroom

double InstLuts(const ir::Inst& inst) {
  switch (inst.op) {
    case ir::Opcode::kConst:
      return 0.3;
    case ir::Opcode::kCopy:
      return 1.0;
    case ir::Opcode::kUnOp:
      return 2.0;
    case ir::Opcode::kBinOp:
      switch (inst.binop) {
        case esm::BinaryOp::kMul:
          return 18.0;
        case esm::BinaryOp::kDiv:
        case esm::BinaryOp::kMod:
          return 28.0;
        case esm::BinaryOp::kShl:
        case esm::BinaryOp::kShr:
          return 9.0;
        case esm::BinaryOp::kAdd:
        case esm::BinaryOp::kSub:
          return 7.0;
        default:
          return 3.5;  // comparisons and bitwise logic
      }
    case ir::Opcode::kLoadIdx:
    case ir::Opcode::kStoreIdx:
      // Mux/demux tree over the array.
      return 0.70 * inst.imm;
    case ir::Opcode::kSend:
    case ir::Opcode::kRecv:
      return 3.0;
    case ir::Opcode::kBranch:
      return 2.0;
    case ir::Opcode::kJump:
    case ir::Opcode::kHalt:
    case ir::Opcode::kAssert:
    case ir::Opcode::kNondet:
      return 0.2;
  }
  return 0.5;
}

}  // namespace

ResourceEstimate EstimateModule(const ir::Module& module) {
  // Flip-flops: frame registers plus the state register and port registers.
  double ff_bits = 0;
  for (const ir::SlotInfo& slot : module.slots) {
    switch (slot.slot_class) {
      case ir::SlotClass::kVar:
        ff_bits += static_cast<double>(slot.size) * slot.type.BitWidth();
        break;
      case ir::SlotClass::kStage:
      case ir::SlotClass::kTemp:
        // Staging and expression temporaries narrow to the datapath width.
        ff_bits += static_cast<double>(slot.size) * 8.0;
        break;
    }
  }
  ir::Segmentation segmentation = ir::SegmentModule(module);
  int states = segmentation.StateCount();
  int state_bits = 1;
  while ((1 << state_bits) < states) {
    ++state_bits;
  }
  ff_bits += state_bits;
  for (const ir::Port& port : module.ports) {
    if (port.is_send) {
      for (const esi::FieldInfo& field : port.channel->fields) {
        ff_bits += static_cast<double>(field.type.FlatSize()) * field.type.BitWidth();
      }
      ff_bits += 1;  // valid
    } else {
      ff_bits += 1;  // ready
    }
  }

  // LUTs: datapath logic plus FSM decode plus register write muxing.
  double luts = 0;
  for (const ir::Block& block : module.blocks) {
    for (const ir::Inst& inst : block.insts) {
      luts += InstLuts(inst);
    }
  }
  luts += 1.2 * states;
  luts += 0.06 * ff_bits;

  ResourceEstimate estimate;
  estimate.ffs = static_cast<int>(std::lround(ff_bits * kFfScale));
  estimate.luts = static_cast<int>(std::lround(luts * kLutScale));
  return estimate;
}

ResourceEstimate EstimateAxiLiteDriver(int down_words, int up_words) {
  ResourceEstimate estimate;
  int words = down_words + up_words;
  // Address decode, AXI handshake FSM, and the auto-reset flag logic.
  estimate.luts = static_cast<int>(std::lround(55 + 4.5 * words));
  // 8-bit payload registers per word plus the AXI bookkeeping.
  estimate.ffs = static_cast<int>(std::lround(50 + 4.5 * words));
  return estimate;
}

ResourceEstimate EstimateBusAdapter() { return ResourceEstimate{62, 48}; }

ResourceEstimate EstimateXilinxIp() { return ResourceEstimate{386, 375}; }

ResourceEstimate EstimateRecoveryWatchdog(int up_words) {
  ResourceEstimate estimate;
  // 24-bit deadline counter + compare, the 9-pulse sequencer FSM (a 4-bit
  // pulse counter, two half-cycle timers sharing the adapter's divider), and
  // a stale-flag per up-message word so software can tell a late reply from
  // a fresh one. The supervision ladder adds the per-stack WDOG limit
  // register + comparator, the SOFT_RESET pulse fanout into every layer FSM,
  // and the sticky wdog-fired status bit.
  estimate.luts = 48 + 2 * up_words + 14;  // wdog compare + reset fanout
  estimate.ffs = 38 + up_words + 26;       // 24-bit wdog limit + pulse/sticky bits
  return estimate;
}

std::string FormatRecoveryCounters(const RecoveryCounters& counters) {
  // Built field by field: the old fixed snprintf buffer silently truncated
  // the tail fields once several counters grew past a few digits.
  std::string out;
  auto field = [&out](const char* name, uint64_t value) {
    if (!out.empty()) {
      out += ' ';
    }
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("attempts", counters.attempts);
  field("retries", counters.retries);
  field("nacks", counters.nacks);
  field("failures", counters.failures);
  field("timeouts", counters.timeouts);
  field("bus_recoveries", counters.bus_recoveries);
  field("deadline_hits", counters.deadline_hits);
  char backoff[32];
  std::snprintf(backoff, sizeof(backoff), " backoff_us=%.1f", counters.backoff_ns / 1e3);
  out += backoff;
  field("soft_resets", counters.soft_resets);
  field("reprobes", counters.reprobes);
  field("degraded", counters.degraded_entries);
  field("arb_waits", counters.arbitration_waits);
  field("mux_selects", counters.mux_selects);
  return out;
}

}  // namespace efeu::driver
