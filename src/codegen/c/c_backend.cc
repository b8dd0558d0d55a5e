#include "src/codegen/c/c_backend.h"

#include <cassert>
#include <map>
#include <set>
#include <vector>

#include "src/codegen/common/expr_printer.h"
#include "src/support/text.h"

namespace efeu::codegen {

std::string CTypeName(const Type& type) {
  switch (type.kind) {
    case ScalarKind::kBit:
      return "bit";
    case ScalarKind::kBool:
      return "bool_t";
    case ScalarKind::kU8:
      return "byte";
    case ScalarKind::kI16:
      return "short";
    case ScalarKind::kI32:
      return "int";
    case ScalarKind::kEnum:
      return "enum " + type.enum_name;
  }
  return "int";
}

namespace {

// The call-graph structure computed by the entry-point DFS.
struct CallGraph {
  // Layer -> the layer it is called by (its "parent"); the entry layer's
  // parent is the adjacent undefined layer (the external interface).
  std::map<std::string, std::string> parent;
  // Layer -> layers it calls directly (forward edges), including peers with
  // no generated body (user-provided boilerplate).
  std::map<std::string, std::vector<std::string>> children;
  // Callees without generated bodies; prototyped as extern in the header,
  // with their channels taken from the caller's ports.
  struct ExternalCallee {
    const esi::ChannelInfo* to_ext = nullptr;    // caller -> callee
    const esi::ChannelInfo* from_ext = nullptr;  // callee -> caller
  };
  std::map<std::string, ExternalCallee> external_callees;
  std::vector<std::string> dfs_order;
};

CallGraph BuildCallGraph(const ir::Compilation& compilation, const std::string& entry) {
  CallGraph graph;
  std::set<std::string> defined;
  for (const ir::Module& module : compilation.modules()) {
    defined.insert(module.layer_name);
  }
  assert(defined.count(entry) == 1 && "entry layer not defined");

  // The entry's external interface: its unique neighbor not defined here.
  const ir::Module* entry_module = compilation.FindModule(entry);
  std::string external;
  for (const ir::Port& port : entry_module->ports) {
    std::string peer = port.peer();
    if (defined.count(peer) == 0) {
      assert((external.empty() || external == peer) &&
             "entry layer has several external neighbors");
      external = peer;
    }
  }
  assert(!external.empty() && "entry layer has no external interface");
  graph.parent[entry] = external;

  // DFS over the layer adjacency (via module ports). Defined peers become
  // callees with generated bodies; undefined peers (e.g. the Electrical bus
  // driver under CSymbol) become extern callees the user provides as
  // boilerplate (paper Figure 5).
  std::vector<std::string> stack = {entry};
  std::set<std::string> visited = {entry};
  while (!stack.empty()) {
    std::string layer = stack.back();
    stack.pop_back();
    graph.dfs_order.push_back(layer);
    const ir::Module* module = compilation.FindModule(layer);
    std::set<std::string> seen_peers;
    for (const ir::Port& port : module->ports) {
      std::string peer = port.peer();
      if (peer == graph.parent[layer] || !seen_peers.insert(peer).second) {
        continue;
      }
      if (visited.count(peer) > 0) {
        continue;
      }
      graph.children[layer].push_back(peer);
      if (defined.count(peer) == 0) {
        CallGraph::ExternalCallee& callee = graph.external_callees[peer];
        for (const ir::Port& p : module->ports) {
          if (p.peer() == peer) {
            if (p.is_send) {
              callee.to_ext = p.channel;
            } else {
              callee.from_ext = p.channel;
            }
          }
        }
        continue;
      }
      visited.insert(peer);
      graph.parent[peer] = layer;
      stack.push_back(peer);
    }
  }
  return graph;
}

class LayerCPrinter {
 public:
  LayerCPrinter(const ir::Compilation& compilation, const CallGraph& graph,
                const esm::LayerDef& layer, const esm::LayerInfo& info, bool is_entry)
      : compilation_(compilation),
        graph_(graph),
        layer_(layer),
        info_(info),
        is_entry_(is_entry) {}

  // The channel from the parent into this layer / back out.
  const esi::ChannelInfo* InChannel() const {
    return compilation_.system().FindChannel(graph_.parent.at(layer_.name), layer_.name);
  }
  const esi::ChannelInfo* OutChannel() const {
    return compilation_.system().FindChannel(layer_.name, graph_.parent.at(layer_.name));
  }

  std::string Signature() const {
    const esi::ChannelInfo* in = InChannel();
    const esi::ChannelInfo* out = OutChannel();
    std::string name = is_entry_ ? layer_.name + "_invoke" : layer_.name + "_step";
    std::string params;
    if (in != nullptr) {
      params += "struct " + in->MessageStructName() + " _in";
    }
    if (out != nullptr) {
      if (!params.empty()) {
        params += ", ";
      }
      params += "struct " + out->MessageStructName() + "* _out";
    }
    if (params.empty()) {
      params = "void";
    }
    return "void " + name + "(" + params + ")";
  }

  std::string ResetSignature() const { return "void " + layer_.name + "_reset(void)"; }

  std::string Print() {
    out_.Line("/* Layer " + layer_.name + ": generated by ESMC (C backend). */");
    out_.Line("#include \"efeu_gen.h\"");
    out_.Blank();
    // Supervision ladder: arms a coroutine reinit. The next invocation
    // restarts from the initial state with zeroed persistent locals; the
    // reset cascades into every generated callee so the whole stack
    // converges together. External boilerplate (e.g. the Electrical bus
    // hook) is stateless by construction and is not reset here.
    out_.Line("static int _reset_pending;");
    out_.Blank();
    out_.Line(ResetSignature() + " {");
    out_.Indent();
    out_.Line("_reset_pending = 1;");
    for (const std::string& child : ChildrenOf(layer_.name)) {
      if (graph_.external_callees.count(child) == 0) {
        out_.Line(child + "_reset();");
      }
    }
    out_.Dedent();
    out_.Line("}");
    out_.Blank();
    out_.Line(Signature() + " {");
    out_.Indent();
    // Persistent FSM state: all locals are static, zero-initialized like the
    // Promela model.
    for (const esm::VarInfo& var : info_.vars) {
      if (var.IsStruct()) {
        out_.Line("static struct " + var.struct_channel->MessageStructName() + " " + var.name +
                  ";");
      } else if (var.type.IsArray()) {
        out_.Line("static " + CTypeName(var.type) + " " + var.name + "[" +
                  std::to_string(var.type.array_size) + "];");
      } else {
        out_.Line("static " + CTypeName(var.type) + " " + var.name + ";");
      }
    }
    // Call/result staging for every child interface.
    for (const std::string& child : ChildrenOf(layer_.name)) {
      const esi::ChannelInfo* to_child =
          compilation_.system().FindChannel(layer_.name, child);
      const esi::ChannelInfo* from_child =
          compilation_.system().FindChannel(child, layer_.name);
      if (to_child != nullptr) {
        out_.Line("static struct " + to_child->MessageStructName() + " _call_" + child + ";");
      }
      if (from_child != nullptr) {
        out_.Line("static struct " + from_child->MessageStructName() + " _res_" + child + ";");
      }
    }
    out_.Line("static int _continuation_pos;");
    out_.Line("int _i;");
    out_.Line("(void)_i;");
    // Each invocation delivers exactly one message from the caller; the
    // first read/talk of the invocation consumes it in place, later ones
    // suspend until the next invocation.
    out_.Line("int _in_consumed = 0;");
    out_.Line("(void)_in_consumed;");
    out_.Blank();
    // Perform the armed reinit before dispatching to any saved continuation:
    // the coroutine forgets its suspension point and every persistent local
    // returns to its zero-initialized starting value.
    out_.Line("if (_reset_pending) {");
    out_.Indent();
    out_.Line("_reset_pending = 0;");
    out_.Line("_continuation_pos = 0;");
    for (const esm::VarInfo& var : info_.vars) {
      if (var.IsStruct() || var.type.IsArray()) {
        std::string object = var.IsStruct() ? "&" + var.name : var.name;
        out_.Line("memset(" + object + ", 0, sizeof " + var.name + ");");
      } else {
        out_.Line(var.name + " = 0;");
      }
    }
    for (const std::string& child : ChildrenOf(layer_.name)) {
      if (compilation_.system().FindChannel(layer_.name, child) != nullptr) {
        out_.Line("memset(&_call_" + child + ", 0, sizeof _call_" + child + ");");
      }
      if (compilation_.system().FindChannel(child, layer_.name) != nullptr) {
        out_.Line("memset(&_res_" + child + ", 0, sizeof _res_" + child + ");");
      }
    }
    out_.Dedent();
    out_.Line("}");
    out_.Blank();
    // Pre-scan for continuation indices so the dispatch switch can be
    // emitted before the body.
    CountContinuations(*layer_.body);
    if (next_continuation_ > 1) {
      out_.Line("switch (_continuation_pos) {");
      out_.Indent();
      for (int i = 1; i < next_continuation_; ++i) {
        out_.Line("case " + std::to_string(i) + ": goto _continuation_" + std::to_string(i) +
                  ";");
      }
      out_.Line("default: break;");
      out_.Dedent();
      out_.Line("}");
      out_.Blank();
    }
    next_continuation_ = 1;
    PrintBlockContents(*layer_.body);
    out_.Dedent();
    out_.Line("}");
    return out_.TakeString();
  }

 private:
  const std::vector<std::string>& ChildrenOf(const std::string& layer) const {
    static const std::vector<std::string> kEmpty;
    auto it = graph_.children.find(layer);
    return it != graph_.children.end() ? it->second : kEmpty;
  }

  bool IsParent(const std::string& peer) const { return graph_.parent.at(layer_.name) == peer; }

  // -- Continuation counting (pre-pass) ------------------------------------
  void CountContinuationsExpr(const esm::Expr& expr) {
    if (expr.kind == esm::ExprKind::kCall) {
      const auto& call = static_cast<const esm::CallExpr&>(expr);
      if ((call.call_kind == esm::CallKind::kTalk || call.call_kind == esm::CallKind::kRead) &&
          IsParent(call.peer)) {
        ++next_continuation_;
      }
      return;
    }
    if (expr.kind == esm::ExprKind::kAssign) {
      const auto& node = static_cast<const esm::AssignExpr&>(expr);
      CountContinuationsExpr(*node.rhs);
    }
  }

  void CountContinuations(const esm::Stmt& stmt) {
    switch (stmt.kind) {
      case esm::StmtKind::kExpr:
        CountContinuationsExpr(*static_cast<const esm::ExprStmt&>(stmt).expr);
        return;
      case esm::StmtKind::kIf: {
        const auto& node = static_cast<const esm::IfStmt&>(stmt);
        CountContinuations(*node.then_branch);
        if (node.else_branch != nullptr) {
          CountContinuations(*node.else_branch);
        }
        return;
      }
      case esm::StmtKind::kWhile:
        CountContinuations(*static_cast<const esm::WhileStmt&>(stmt).body);
        return;
      case esm::StmtKind::kBlock: {
        for (const esm::StmtPtr& child :
             static_cast<const esm::BlockStmt&>(stmt).statements) {
          CountContinuations(*child);
        }
        return;
      }
      default:
        return;
    }
  }

  // -- Printing --------------------------------------------------------------
  // All C expressions print with guarded shifts so out-of-range shift amounts
  // evaluate to 0 exactly like the interpreters (ESM expressions are
  // side-effect free, so the guard's double evaluation is safe), and with
  // enum reads cast back to int so C's unsigned enum promotion cannot flip
  // comparisons the interpreters evaluate in signed arithmetic.
  static ExprPrintOptions CExprOptions() {
    ExprPrintOptions options;
    options.guard_shifts = true;
    options.cast_enum_reads_to_int = true;
    return options;
  }

  static std::string PrintCExpr(const esm::Expr& expr) {
    return PrintExpr(expr, CExprOptions());
  }

  static std::string PrintCLvalue(const esm::Expr& expr) {
    return PrintLvalue(expr, CExprOptions());
  }

  // Mirrors the IR lowering's store truncation (Type::Truncate) for values
  // landing in a typed location. C's narrow locals already wrap correctly for
  // byte (unsigned char) and short, but bit/bool must collapse to 0/1 — the
  // unsigned char local would happily hold 138 — and enum locations are
  // int-sized in C, so they must wrap to a byte explicitly.
  static std::string TruncateToType(const Type& type, const std::string& value) {
    if (type.IsBoolish()) {
      return "((" + value + ") != 0)";
    }
    if (type.IsEnum()) {
      return "(enum " + type.enum_name + ")(byte)(" + value + ")";
    }
    return value;
  }

  void PrintBlockContents(const esm::BlockStmt& block) {
    for (const esm::StmtPtr& stmt : block.statements) {
      PrintStmt(*stmt);
    }
  }

  // Emits the field assignments of a talk's arguments into `dest` (a struct
  // lvalue prefix like "_call_CByte." or "_out->").
  void PrintArgStaging(const esm::CallExpr& call, const std::string& dest) {
    for (size_t i = 0; i < call.args.size(); ++i) {
      const esi::FieldInfo& field = call.out_channel->fields[i];
      const esm::Expr& arg = *call.args[i];
      if (field.type.IsArray()) {
        std::string src = PrintCExpr(arg);
        out_.Line("for (_i = 0; _i < " + std::to_string(field.type.array_size) + "; ++_i) {");
        out_.Indent();
        out_.Line(dest + field.name + "[_i] = " + src + "[_i];");
        out_.Dedent();
        out_.Line("}");
      } else if (field.type.IsBoolish() || field.type.IsEnum()) {
        out_.Line(dest + field.name + " = " + TruncateToType(field.type, PrintCExpr(arg)) + ";");
      } else {
        out_.Line(dest + field.name + " = (" + CTypeName(field.type) + ")(" + PrintCExpr(arg) +
                  ");");
      }
    }
  }

  // Transforms a talk/read call. `target` is the assignment destination
  // variable name ("" when the result is discarded).
  void PrintComm(const esm::CallExpr& call, const std::string& target) {
    if (IsParent(call.peer)) {
      // Reverse edge: continuation (paper Figure 6). A talk replies to the
      // caller, so it always suspends; a read only suspends if this
      // invocation's message was already consumed.
      if (call.call_kind == esm::CallKind::kTalk || call.call_kind == esm::CallKind::kPost) {
        PrintArgStaging(call, "_out->");
      }
      if (call.call_kind == esm::CallKind::kPost) {
        return;
      }
      int index = next_continuation_++;
      if (call.call_kind == esm::CallKind::kRead) {
        out_.Line("if (_in_consumed) {");
        out_.Indent();
        out_.Line("_continuation_pos = " + std::to_string(index) + ";");
        out_.Line("return;");
        out_.Dedent();
        out_.Line("}");
      } else {
        out_.Line("_continuation_pos = " + std::to_string(index) + ";");
        out_.Line("return;");
      }
      out_.Line("_continuation_" + std::to_string(index) + ":");
      out_.Line("_in_consumed = 1;");
      if (!target.empty()) {
        out_.Line(target + " = _in;");
      } else {
        out_.Line("(void)_in;");
      }
      return;
    }
    // Forward edge: direct call into the child layer.
    const std::string& child = call.peer;
    if (call.call_kind == esm::CallKind::kTalk || call.call_kind == esm::CallKind::kPost) {
      PrintArgStaging(call, "_call_" + child + ".");
    }
    std::string args;
    if (call.out_channel != nullptr) {
      args += "_call_" + child;
    }
    if (call.in_channel != nullptr) {
      if (!args.empty()) {
        args += ", ";
      }
      args += "&_res_" + child;
    }
    out_.Line(child + "_step(" + args + ");");
    if (!target.empty()) {
      out_.Line(target + " = _res_" + child + ";");
    }
  }

  void PrintAssign(const esm::AssignExpr& assign) {
    if (assign.rhs->kind == esm::ExprKind::kCall) {
      const auto& call = static_cast<const esm::CallExpr&>(*assign.rhs);
      assert(call.call_kind != esm::CallKind::kNondet &&
             "nondet() cannot appear in generated drivers");
      if (call.call_kind != esm::CallKind::kUnresolved) {
        PrintComm(call, PrintCLvalue(*assign.lhs));
        return;
      }
    }
    out_.Line(PrintCLvalue(*assign.lhs) + " = " +
              TruncateToType(assign.lhs->type, PrintCExpr(*assign.rhs)) + ";");
  }

  void PrintStmt(const esm::Stmt& stmt) {
    switch (stmt.kind) {
      case esm::StmtKind::kDecl:
      case esm::StmtKind::kEmpty:
        return;
      case esm::StmtKind::kExpr: {
        const auto& node = static_cast<const esm::ExprStmt&>(stmt);
        if (node.expr->kind == esm::ExprKind::kCall) {
          PrintComm(static_cast<const esm::CallExpr&>(*node.expr), "");
          return;
        }
        if (node.expr->kind == esm::ExprKind::kAssign) {
          PrintAssign(static_cast<const esm::AssignExpr&>(*node.expr));
          return;
        }
        out_.Line(PrintCExpr(*node.expr) + ";");
        return;
      }
      case esm::StmtKind::kIf: {
        const auto& node = static_cast<const esm::IfStmt&>(stmt);
        out_.Line("if (" + PrintCExpr(*node.condition) + ") {");
        out_.Indent();
        PrintStmt(*node.then_branch);
        out_.Dedent();
        if (node.else_branch != nullptr) {
          out_.Line("} else {");
          out_.Indent();
          PrintStmt(*node.else_branch);
          out_.Dedent();
        }
        out_.Line("}");
        return;
      }
      case esm::StmtKind::kWhile: {
        const auto& node = static_cast<const esm::WhileStmt&>(stmt);
        out_.Line("while (" + PrintCExpr(*node.condition) + ") {");
        out_.Indent();
        PrintStmt(*node.body);
        out_.Dedent();
        out_.Line("}");
        return;
      }
      case esm::StmtKind::kGoto:
        out_.Line("goto " + static_cast<const esm::GotoStmt&>(stmt).label + ";");
        return;
      case esm::StmtKind::kLabel:
        out_.Line(static_cast<const esm::LabelStmt&>(stmt).name + ":;");
        return;
      case esm::StmtKind::kAssert:
        out_.Line("EFEU_ASSERT(" + PrintCExpr(*static_cast<const esm::AssertStmt&>(stmt).condition) +
                  ");");
        return;
      case esm::StmtKind::kBlock:
        PrintBlockContents(static_cast<const esm::BlockStmt&>(stmt));
        return;
    }
  }

  const ir::Compilation& compilation_;
  const CallGraph& graph_;
  const esm::LayerDef& layer_;
  const esm::LayerInfo& info_;
  bool is_entry_;
  CodeWriter out_;
  int next_continuation_ = 1;
};

}  // namespace

std::string COutput::Combined() const {
  std::string out = header;
  for (const auto& [name, text] : layers) {
    out += "\n" + text;
  }
  return out;
}

COutput GenerateC(const ir::Compilation& compilation, const std::string& entry_layer) {
  COutput output;
  const esi::SystemInfo& system = compilation.system();
  CallGraph graph = BuildCallGraph(compilation, entry_layer);

  CodeWriter header;
  header.Line("/* Generated by ESMC (C backend): common declarations. */");
  header.Line("#ifndef EFEU_GEN_H_");
  header.Line("#define EFEU_GEN_H_");
  header.Blank();
  header.Line("#include <assert.h>");
  header.Line("#include <string.h>");
  header.Blank();
  header.Line("typedef unsigned char bit;");
  header.Line("typedef unsigned char bool_t;");
  header.Line("typedef unsigned char byte;");
  // Overridable so test harnesses can intercept assertion failures (the fuzz
  // differential oracle predefines EFEU_ASSERT via -include to longjmp out of
  // the generated code instead of aborting the host process).
  header.Line("#ifndef EFEU_ASSERT");
  header.Line("#define EFEU_ASSERT(cond) assert(cond)");
  header.Line("#endif");
  header.Blank();
  for (const esi::EnumInfo& info : system.enums()) {
    header.Line("enum " + info.name + " {");
    header.Indent();
    for (const std::string& member : info.members) {
      header.Line(member + ",");
    }
    header.Dedent();
    header.Line("};");
    header.Blank();
  }
  std::set<const esi::ChannelInfo*> used;
  for (const ir::Module& module : compilation.modules()) {
    for (const ir::Port& port : module.ports) {
      used.insert(port.channel);
    }
  }
  for (const esi::InterfaceInfo& iface : system.interfaces()) {
    for (const std::optional<esi::ChannelInfo>* slot : {&iface.to_second, &iface.to_first}) {
      if (!slot->has_value() || used.count(&**slot) == 0) {
        continue;
      }
      const esi::ChannelInfo& channel = **slot;
      header.Line("struct " + channel.MessageStructName() + " {");
      header.Indent();
      if (channel.fields.empty()) {
        header.Line("unsigned char _pad;");
      }
      for (const esi::FieldInfo& field : channel.fields) {
        std::string decl = CTypeName(field.type) + " " + field.name;
        if (field.type.IsArray()) {
          decl += "[" + std::to_string(field.type.array_size) + "]";
        }
        header.Line(decl + ";");
      }
      header.Dedent();
      header.Line("};");
      header.Blank();
    }
  }

  // Boilerplate hooks the user must provide (Figure 5's hand-written parts).
  for (const auto& [external, callee] : graph.external_callees) {
    std::string params;
    if (callee.to_ext != nullptr) {
      params += "struct " + callee.to_ext->MessageStructName() + " _in";
    }
    if (callee.from_ext != nullptr) {
      if (!params.empty()) {
        params += ", ";
      }
      params += "struct " + callee.from_ext->MessageStructName() + "* _out";
    }
    header.Line("/* Provided by the user (boilerplate, cf. Figure 5): */");
    header.Line("extern void " + external + "_step(" + (params.empty() ? "void" : params) +
                ");");
    header.Blank();
  }

  const esm::EsmFile& file = compilation.esm_file();
  std::vector<std::string> prototypes;
  for (const std::string& layer_name : graph.dfs_order) {
    const esm::LayerDef* layer_def = nullptr;
    for (const esm::LayerDef& layer : file.layers) {
      if (layer.name == layer_name) {
        layer_def = &layer;
        break;
      }
    }
    assert(layer_def != nullptr);
    const esm::LayerInfo* info = compilation.FindLayer(layer_name);
    LayerCPrinter printer(compilation, graph, *layer_def, *info, layer_name == entry_layer);
    prototypes.push_back(printer.Signature() + ";");
    prototypes.push_back(printer.ResetSignature() + ";");
    output.layers[layer_name] = printer.Print();
  }
  for (const std::string& prototype : prototypes) {
    header.Line(prototype);
  }
  header.Blank();
  header.Line("#endif /* EFEU_GEN_H_ */");
  output.header = header.TakeString();
  return output;
}

}  // namespace efeu::codegen
