#include "src/esi/type.h"

namespace efeu {

int Type::BitWidth() const {
  switch (kind) {
    case ScalarKind::kBit:
    case ScalarKind::kBool:
      return 1;
    case ScalarKind::kU8:
    case ScalarKind::kEnum:
      return 8;
    case ScalarKind::kI16:
      return 16;
    case ScalarKind::kI32:
      return 32;
  }
  return 32;
}

std::string Type::ToString() const {
  std::string base;
  switch (kind) {
    case ScalarKind::kBit:
      base = "bit";
      break;
    case ScalarKind::kBool:
      base = "bool";
      break;
    case ScalarKind::kU8:
      base = "u8";
      break;
    case ScalarKind::kI16:
      base = "i16";
      break;
    case ScalarKind::kI32:
      base = "i32";
      break;
    case ScalarKind::kEnum:
      base = enum_name;
      break;
  }
  if (IsArray()) {
    base += "[" + std::to_string(array_size) + "]";
  }
  return base;
}

}  // namespace efeu
