#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace mmlib::json {

/// Type tag of a JSON value.
enum class Type {
  kNull,
  kBool,
  kNumber,
  kString,
  kArray,
  kObject,
};

/// A JSON value (ECMA-404). Objects keep keys in sorted order (std::map) so
/// serialization is canonical: the same value always serializes to the same
/// bytes, which makes document hashing and storage accounting deterministic.
///
/// mmlib stores all model metadata (paper Section 3.1 "Model Storage") as
/// JSON documents in the document store.
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  /// Constructs null.
  Value() : type_(Type::kNull) {}
  Value(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Value(double d) : type_(Type::kNumber), number_(d) {}  // NOLINT
  Value(int i) : type_(Type::kNumber), number_(i) {}  // NOLINT
  Value(int64_t i)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Value(uint64_t u)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  Value(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Value(std::string s)  // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  Value(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  /// Factory helpers for empty containers.
  static Value MakeObject() { return Value(Object{}); }
  static Value MakeArray() { return Value(Array{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Unchecked accessors; behaviour is undefined on type mismatch (asserted
  /// in debug builds). Use Get* for checked access.
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  /// Object access: returns the member or an error. `this` must be an object.
  Result<const Value*> GetMember(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;
  Result<double> GetNumber(std::string_view key) const;
  Result<int64_t> GetInt(std::string_view key) const;
  Result<bool> GetBool(std::string_view key) const;
  /// Returns the member if present and non-null, otherwise nullptr; never
  /// fails (for optional fields).
  const Value* FindMember(std::string_view key) const;

  /// Sets an object member; `this` must be an object.
  void Set(std::string key, Value value);
  bool Has(std::string_view key) const { return FindMember(key) != nullptr; }

  /// Appends to an array; `this` must be an array.
  void Append(Value value);

  /// Deep structural equality.
  bool operator==(const Value& other) const;

  /// Serializes canonically (sorted keys, no whitespace).
  std::string Dump() const;

  /// Serializes with 2-space indentation for human consumption.
  std::string DumpPretty() const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses a JSON document; fails with InvalidArgument on malformed input.
Result<Value> Parse(std::string_view text);

}  // namespace mmlib::json

