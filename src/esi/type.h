// The value type system shared by ESI interface fields and ESM variables.
// Supported types follow the paper: bit/bool, unsigned byte (u8), 16- and
// 32-bit integers (i16/i32), enumerations, and 1-dimensional arrays.

#ifndef SRC_ESI_TYPE_H_
#define SRC_ESI_TYPE_H_

#include <cstdint>
#include <string>

namespace efeu {

enum class ScalarKind {
  kBit,
  kBool,
  kU8,
  kI16,
  kI32,
  kEnum,
};

struct Type {
  ScalarKind kind = ScalarKind::kI32;
  // Set when kind == kEnum.
  std::string enum_name;
  // 0 means scalar; > 0 means a 1-D array of that many elements.
  int array_size = 0;

  bool IsArray() const { return array_size > 0; }
  bool IsEnum() const { return kind == ScalarKind::kEnum; }
  bool IsBoolish() const { return kind == ScalarKind::kBit || kind == ScalarKind::kBool; }

  // Number of int32 slots a value of this type occupies when flattened into a
  // message or a stack frame.
  int FlatSize() const { return IsArray() ? array_size : 1; }

  // Storage width in bits of one element; drives value truncation semantics
  // and the hardware resource estimate. Enums are conservatively 8 bits wide
  // (they are bytes in the generated C and Promela mtype).
  int BitWidth() const;

  // Truncates `value` to this type's storage, mirroring C assignment to the
  // corresponding narrow type (u8 wraps, i16 sign-extends, bit/bool -> 0/1).
  // Inline: the interpreter calls it on most instructions.
  int32_t Truncate(int64_t value) const {
    switch (kind) {
      case ScalarKind::kBit:
      case ScalarKind::kBool:
        return value != 0 ? 1 : 0;
      case ScalarKind::kU8:
      case ScalarKind::kEnum:
        return static_cast<int32_t>(static_cast<uint8_t>(value));
      case ScalarKind::kI16:
        return static_cast<int32_t>(static_cast<int16_t>(value));
      case ScalarKind::kI32:
        return static_cast<int32_t>(value);
    }
    return static_cast<int32_t>(value);
  }

  std::string ToString() const;

  bool operator==(const Type& other) const {
    return kind == other.kind && enum_name == other.enum_name && array_size == other.array_size;
  }

  static Type Bit() { return Type{ScalarKind::kBit, "", 0}; }
  static Type Bool() { return Type{ScalarKind::kBool, "", 0}; }
  static Type U8() { return Type{ScalarKind::kU8, "", 0}; }
  static Type I16() { return Type{ScalarKind::kI16, "", 0}; }
  static Type I32() { return Type{ScalarKind::kI32, "", 0}; }
  static Type Enum(std::string name) { return Type{ScalarKind::kEnum, std::move(name), 0}; }
  Type Array(int size) const {
    Type copy = *this;
    copy.array_size = size;
    return copy;
  }
  Type Element() const {
    Type copy = *this;
    copy.array_size = 0;
    return copy;
  }
};

}  // namespace efeu

#endif  // SRC_ESI_TYPE_H_
