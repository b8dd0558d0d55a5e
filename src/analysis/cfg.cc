#include "src/analysis/cfg.h"

#include <algorithm>

namespace efeu::analysis {

uint64_t PortBit(int port) {
  // Ports beyond the mask width saturate to "any port" — still conservative.
  return port >= 0 && port < 64 ? uint64_t{1} << port : ~uint64_t{0};
}

bool MergeStepSummary(StepSummary& into, const StepSummary& from) {
  bool changed = false;
  if (from.may_pass_progress && !into.may_pass_progress) {
    into.may_pass_progress = true;
    changed = true;
  }
  if (from.may_choose && !into.may_choose) {
    into.may_choose = true;
    changed = true;
  }
  if ((into.port_mask | from.port_mask) != into.port_mask) {
    into.port_mask |= from.port_mask;
    changed = true;
  }
  return changed;
}

StepSummary ScanSummaryFrom(const ir::Module& module,
                            const std::vector<StepSummary>& block_entry, int block,
                            int inst_index) {
  StepSummary summary;
  const std::vector<ir::Inst>& insts = module.blocks[block].insts;
  for (size_t i = static_cast<size_t>(inst_index); i < insts.size(); ++i) {
    const ir::Inst& inst = insts[i];
    switch (inst.op) {
      case ir::Opcode::kSend:
      case ir::Opcode::kRecv:
        summary.port_mask |= PortBit(inst.port);
        return summary;
      case ir::Opcode::kNondet:
        summary.may_choose = true;
        return summary;
      case ir::Opcode::kHalt:
        return summary;
      case ir::Opcode::kJump:
        MergeStepSummary(summary, block_entry[inst.target]);
        return summary;
      case ir::Opcode::kBranch:
        MergeStepSummary(summary, block_entry[inst.target]);
        MergeStepSummary(summary, block_entry[inst.target2]);
        return summary;
      default:
        break;
    }
  }
  return summary;  // Unreachable: every block ends with a terminator.
}

std::vector<StepSummary> ComputeBlockEntrySummaries(const ir::Module& module) {
  std::vector<StepSummary> block_entry(module.blocks.size());
  // Least fixpoint by iteration: summaries only grow and the lattice is
  // small (two bits plus a port mask), so this converges in a few passes.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < module.blocks.size(); ++b) {
      StepSummary summary = ScanSummaryFrom(module, block_entry, static_cast<int>(b), 0);
      if (module.blocks[b].is_progress_label) {
        summary.may_pass_progress = true;
      }
      if (MergeStepSummary(block_entry[b], summary)) {
        changed = true;
      }
    }
  }
  return block_entry;
}

namespace {

// Iterative Tarjan SCC over the block graph (specs are small, but goto-heavy
// layers can nest deeply enough that recursion depth is worth avoiding).
class TarjanScc {
 public:
  explicit TarjanScc(const std::vector<std::vector<int>>& succs)
      : scc_id_(succs.size(), -1),
        succs_(succs),
        index_(succs.size(), -1),
        lowlink_(succs.size(), 0),
        on_stack_(succs.size(), 0) {}

  void Run() {
    for (size_t v = 0; v < succs_.size(); ++v) {
      if (index_[v] < 0) {
        Visit(static_cast<int>(v));
      }
    }
  }

  std::vector<int> scc_id_;
  std::vector<std::vector<int>> components_;

 private:
  struct Frame {
    int v;
    size_t next_succ;
  };

  void Visit(int root) {
    std::vector<Frame> work;
    work.push_back({root, 0});
    Open(root);
    while (!work.empty()) {
      Frame& frame = work.back();
      if (frame.next_succ < succs_[frame.v].size()) {
        int w = succs_[frame.v][frame.next_succ++];
        if (index_[w] < 0) {
          Open(w);
          work.push_back({w, 0});
        } else if (on_stack_[w]) {
          lowlink_[frame.v] = std::min(lowlink_[frame.v], index_[w]);
        }
      } else {
        int v = frame.v;
        work.pop_back();
        if (!work.empty()) {
          lowlink_[work.back().v] = std::min(lowlink_[work.back().v], lowlink_[v]);
        }
        if (lowlink_[v] == index_[v]) {
          std::vector<int> component;
          int w;
          do {
            w = stack_.back();
            stack_.pop_back();
            on_stack_[w] = 0;
            scc_id_[w] = static_cast<int>(components_.size());
            component.push_back(w);
          } while (w != v);
          components_.push_back(std::move(component));
        }
      }
    }
  }

  void Open(int v) {
    index_[v] = lowlink_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_[v] = 1;
  }

  const std::vector<std::vector<int>>& succs_;
  std::vector<int> index_;
  std::vector<int> lowlink_;
  std::vector<char> on_stack_;
  std::vector<int> stack_;
  int next_index_ = 0;
};

}  // namespace

CfgFacts BuildCfgFacts(const ir::Module& module) {
  CfgFacts facts;
  size_t n = module.blocks.size();
  facts.succs.resize(n);
  facts.preds.resize(n);
  for (size_t b = 0; b < n; ++b) {
    const ir::Inst& term = module.blocks[b].insts.back();
    if (term.op == ir::Opcode::kJump) {
      facts.succs[b].push_back(term.target);
    } else if (term.op == ir::Opcode::kBranch) {
      facts.succs[b].push_back(term.target);
      if (term.target2 != term.target) {
        facts.succs[b].push_back(term.target2);
      }
    }
  }
  for (size_t b = 0; b < n; ++b) {
    for (int s : facts.succs[b]) {
      facts.preds[s].push_back(static_cast<int>(b));
    }
  }

  // Forward reachability from the entry block.
  facts.reachable.assign(n, 0);
  std::vector<int> work;
  if (n > 0) {
    facts.reachable[0] = 1;
    work.push_back(0);
  }
  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    for (int s : facts.succs[b]) {
      if (!facts.reachable[s]) {
        facts.reachable[s] = 1;
        work.push_back(s);
      }
    }
  }

  // SCCs.
  TarjanScc tarjan(facts.succs);
  tarjan.Run();
  facts.scc_id = std::move(tarjan.scc_id_);
  facts.sccs.resize(tarjan.components_.size());
  for (size_t c = 0; c < tarjan.components_.size(); ++c) {
    SccInfo& scc = facts.sccs[c];
    scc.blocks = std::move(tarjan.components_[c]);
    std::sort(scc.blocks.begin(), scc.blocks.end());
    scc.has_cycle = scc.blocks.size() > 1;
    for (int b : scc.blocks) {
      if (facts.reachable[b]) {
        scc.reachable = true;
      }
      if (module.blocks[b].is_progress_label) {
        scc.has_progress = true;
      }
      for (const ir::Inst& inst : module.blocks[b].insts) {
        if (inst.IsBlocking()) {
          scc.has_blocking = true;
        }
      }
      for (int s : facts.succs[b]) {
        if (s == b) {
          scc.has_cycle = true;  // Self-edge.
        }
      }
    }
  }

  // Backward reachability to progress-labeled blocks.
  facts.reaches_progress.assign(n, 0);
  work.clear();
  for (size_t b = 0; b < n; ++b) {
    if (module.blocks[b].is_progress_label) {
      facts.reaches_progress[b] = 1;
      work.push_back(static_cast<int>(b));
    }
  }
  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    for (int p : facts.preds[b]) {
      if (!facts.reaches_progress[p]) {
        facts.reaches_progress[p] = 1;
        work.push_back(p);
      }
    }
  }
  return facts;
}

}  // namespace efeu::analysis
