// Shared FSM segmentation of IR blocks: each block is cut at blocking
// instructions; every segment becomes one hardware state. Used by the Verilog
// backend, the cycle-accurate RTL simulator, and the resource estimator so
// all three agree on the state encoding.

#ifndef SRC_IR_SEGMENT_H_
#define SRC_IR_SEGMENT_H_

#include <vector>

#include "src/ir/ir.h"

namespace efeu::ir {

struct Segment {
  int block = 0;
  int first = 0;   // first instruction index
  int last = 0;    // one past the last plain instruction
  int ender = -1;  // index of the blocking/terminator instruction, or -1
  // The port of an ender that handshakes (a send or a receive), where the
  // FSM parks until the peer answers; -1 for every other segment.
  int port = -1;
  bool is_send = false;  // that handshake's direction
};

struct Segmentation {
  std::vector<Segment> segments;
  // Segment index where each block starts.
  std::vector<int> block_entry;

  // Total FSM states: one per segment plus one de-assert state per receive.
  int StateCount() const;
};

Segmentation SegmentModule(const Module& module);

}  // namespace efeu::ir

#endif  // SRC_IR_SEGMENT_H_
