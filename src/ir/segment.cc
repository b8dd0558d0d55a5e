#include "src/ir/segment.h"

namespace efeu::ir {

Segmentation SegmentModule(const Module& module) {
  Segmentation result;
  result.block_entry.assign(module.blocks.size(), -1);
  for (size_t b = 0; b < module.blocks.size(); ++b) {
    const Block& block = module.blocks[b];
    int i = 0;
    bool first = true;
    while (i < static_cast<int>(block.insts.size())) {
      Segment segment;
      segment.block = static_cast<int>(b);
      segment.first = i;
      while (i < static_cast<int>(block.insts.size()) && !block.insts[i].IsBlocking() &&
             !block.insts[i].IsTerminator()) {
        ++i;
      }
      segment.last = i;
      segment.ender = i < static_cast<int>(block.insts.size()) ? i : -1;
      if (segment.ender >= 0) {
        const Inst& ender = block.insts[i];
        if (ender.op == Opcode::kSend || ender.op == Opcode::kRecv) {
          segment.port = ender.port;
          segment.is_send = ender.op == Opcode::kSend;
        }
        ++i;
      }
      if (first) {
        result.block_entry[b] = static_cast<int>(result.segments.size());
        first = false;
      }
      result.segments.push_back(segment);
    }
  }
  return result;
}

int Segmentation::StateCount() const {
  int count = 0;
  for (const Segment& segment : segments) {
    ++count;
    if (segment.port >= 0 && !segment.is_send) {
      ++count;
    }
  }
  return count;
}

}  // namespace efeu::ir
