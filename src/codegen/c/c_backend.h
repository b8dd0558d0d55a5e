// The C backend: generates C implementing the layer FSMs as stack-based
// coroutines (paper section 3.3). The developer picks an entry point into the
// call graph; a DFS makes talk/read on forward edges plain function calls and
// on reverse edges continuations (Figure 6). Choosing the top layer yields a
// driver library; choosing the bottom layer yields the event-loop style used
// in server processes (Figure 5).

#ifndef SRC_CODEGEN_C_C_BACKEND_H_
#define SRC_CODEGEN_C_C_BACKEND_H_

#include <map>
#include <string>

#include "src/ir/compile.h"

namespace efeu::codegen {

struct COutput {
  // Common header: enums, message struct typedefs, prototypes.
  std::string header;
  // One .c file per layer, keyed by layer name.
  std::map<std::string, std::string> layers;

  std::string Combined() const;
};

// C spelling of one scalar or enum element type, as the generated header's
// typedefs name it ("bit", "bool_t", "byte", "short", "int", "enum E").
std::string CTypeName(const Type& type);

// `entry_layer` must be defined in the compilation and adjacent to exactly
// one undefined layer (its external interface). The generated entry function
// is `void <entry>_invoke(<In> in, <Out>* out)`.
COutput GenerateC(const ir::Compilation& compilation, const std::string& entry_layer);

}  // namespace efeu::codegen

#endif  // SRC_CODEGEN_C_C_BACKEND_H_
