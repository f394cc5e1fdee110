// A minimal JSON value parser for stream consumers (tcfmon).
//
// The repo deliberately has no third-party JSON dependency; the exporters
// emit JSON by hand and the tests check it with this parser. tcfmon decodes
// tcfpn-stream-v1 NDJSON lines produced by this very codebase with it, so
// the parser only needs honest JSON — objects, arrays, strings with the
// escapes json_escape emits (\" \\ \/ \b \f \n \r \t \uXXXX), numbers,
// true/false/null. It rejects anything malformed rather than guessing (a
// leading zero, whitespace other than space, tab, CR and LF); tcfmon skips
// unparseable lines and counts them.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tcfpn::obs {

class JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  bool boolean() const { return bool_; }
  double number() const { return num_; }
  const std::string& str() const { return str_; }
  const JsonArray& array() const { return *arr_; }
  const JsonObject& object() const { return *obj_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
  /// Convenience typed getters with defaults (tcfmon's main access pattern).
  double get_number(const std::string& key, double dflt = 0) const;
  std::string get_string(const std::string& key,
                         const std::string& dflt = "") const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonObject o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parses one complete JSON document (full-input consumption modulo trailing
/// whitespace). Returns false and fills `error` on malformed input.
bool parse_json(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace tcfpn::obs
