#include "src/ir/dump.h"

#include <sstream>

#include "src/ir/opcode_info.h"

namespace efeu::ir {

std::string DumpModule(const Module& module) {
  std::ostringstream out;
  out << "module " << module.layer_name << " frame=" << module.frame_size << "\n";
  for (const Port& port : module.ports) {
    out << "  port " << (port.is_send ? "send " : "recv ") << port.channel->MessageStructName()
        << "\n";
  }
  for (const SlotInfo& slot : module.slots) {
    out << "  slot @" << slot.offset << " " << slot.name << " : " << slot.type.ToString();
    if (slot.size > 1) {
      out << " x" << slot.size;
    }
    out << "\n";
  }
  for (size_t b = 0; b < module.blocks.size(); ++b) {
    const Block& block = module.blocks[b];
    out << "b" << b;
    if (!block.label.empty()) {
      out << " (" << block.label << ")";
    }
    if (block.is_end_label) {
      out << " [end]";
    }
    if (block.is_progress_label) {
      out << " [progress]";
    }
    out << ":\n";
    for (const Inst& inst : block.insts) {
      out << "  ";
      switch (inst.op) {
        case Opcode::kConst:
          out << "s" << inst.dst << " = const " << inst.imm;
          break;
        case Opcode::kCopy:
          out << "s" << inst.dst << " = s" << inst.a << " :" << inst.type.ToString();
          break;
        case Opcode::kUnOp:
          out << "s" << inst.dst << " = " << UnaryOpSpelling(inst.unop) << "s" << inst.a;
          break;
        case Opcode::kBinOp:
          out << "s" << inst.dst << " = s" << inst.a << " " << BinaryOpSpelling(inst.binop) << " s"
              << inst.b;
          break;
        case Opcode::kLoadIdx:
          out << "s" << inst.dst << " = s" << inst.a << "[s" << inst.b << "] n=" << inst.imm;
          break;
        case Opcode::kStoreIdx:
          out << "s" << inst.dst << "[s" << inst.b << "] = s" << inst.a << " n=" << inst.imm;
          break;
        case Opcode::kSend:
          out << "send p" << inst.port << " from s" << inst.a << " n=" << inst.count;
          break;
        case Opcode::kRecv:
          out << "recv p" << inst.port << " into s" << inst.dst << " n=" << inst.count;
          break;
        case Opcode::kNondet:
          out << "s" << inst.dst << " = nondet " << inst.imm;
          break;
        case Opcode::kAssert:
          out << "assert s" << inst.a;
          break;
        case Opcode::kJump:
          out << "jump b" << inst.target;
          break;
        case Opcode::kBranch:
          out << "branch s" << inst.a << " ? b" << inst.target << " : b" << inst.target2;
          break;
        case Opcode::kHalt:
          out << "halt";
          break;
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace efeu::ir
