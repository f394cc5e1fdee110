#include "obs/njson.hpp"

#include <cctype>
#include <cstdlib>
#include <utility>

namespace tcfpn::obs {

const JsonValue* JsonValue::get(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

double JsonValue::get_number(const std::string& key, double dflt) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_number()) ? v->number() : dflt;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& dflt) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_string()) ? v->str() : dflt;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::make_shared<JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonObject o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::make_shared<JsonObject>(std::move(o));
  return v;
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& msg) {
    if (err.empty()) err = msg + " at offset " + std::to_string(i);
    return false;
  }

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }

  bool consume(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    std::string r;
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') {
        *out = std::move(r);
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        r.push_back(c);
        continue;
      }
      if (i >= s.size()) return fail("truncated escape");
      const char e = s[i++];
      switch (e) {
        case '"': r.push_back('"'); break;
        case '\\': r.push_back('\\'); break;
        case '/': r.push_back('/'); break;
        case 'b': r.push_back('\b'); break;
        case 'f': r.push_back('\f'); break;
        case 'n': r.push_back('\n'); break;
        case 'r': r.push_back('\r'); break;
        case 't': r.push_back('\t'); break;
        case 'u': {
          if (i + 4 > s.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode; our own emitter only produces \u00XX for control
          // bytes, but decode the full BMP for robustness. Surrogate pairs
          // are passed through as two 3-byte sequences (never emitted).
          if (cp < 0x80) {
            r.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            r.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            r.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            r.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            r.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            r.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    const char c = s[i];
    if (c == '{') {
      ++i;
      JsonObject obj;
      skip_ws();
      if (consume('}')) {
        *out = JsonValue::make_object(std::move(obj));
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        obj.insert_or_assign(std::move(key), std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) break;
        return fail("expected ',' or '}'");
      }
      *out = JsonValue::make_object(std::move(obj));
      return true;
    }
    if (c == '[') {
      ++i;
      JsonArray arr;
      skip_ws();
      if (consume(']')) {
        *out = JsonValue::make_array(std::move(arr));
        return true;
      }
      while (true) {
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        arr.push_back(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) break;
        return fail("expected ',' or ']'");
      }
      *out = JsonValue::make_array(std::move(arr));
      return true;
    }
    if (c == '"') {
      std::string str;
      if (!parse_string(&str)) return false;
      *out = JsonValue::make_string(std::move(str));
      return true;
    }
    if (s.compare(i, 4, "true") == 0) {
      i += 4;
      *out = JsonValue::make_bool(true);
      return true;
    }
    if (s.compare(i, 5, "false") == 0) {
      i += 5;
      *out = JsonValue::make_bool(false);
      return true;
    }
    if (s.compare(i, 4, "null") == 0) {
      i += 4;
      *out = JsonValue::make_null();
      return true;
    }
    // Number: scan the strict JSON grammar by hand (strtod alone would also
    // accept hex, "inf", "nan", leading '+' and leading zeros), then convert
    // the exact slice.
    if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t start = i;
      const auto digit = [&] { return i < s.size() && s[i] >= '0' && s[i] <= '9'; };
      if (s[i] == '-') ++i;
      if (!digit()) return fail("bad number");
      const std::size_t int_start = i;
      while (digit()) ++i;
      if (s[int_start] == '0' && i - int_start > 1) {
        return fail("leading zero in number");
      }
      if (i < s.size() && s[i] == '.') {
        ++i;
        if (!digit()) return fail("bad number");
        while (digit()) ++i;
      }
      if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
        if (!digit()) return fail("bad number");
        while (digit()) ++i;
      }
      const std::string slice(s.substr(start, i - start));
      *out = JsonValue::make_number(std::strtod(slice.c_str(), nullptr));
      return true;
    }
    return fail("unexpected character");
  }
};

}  // namespace

bool parse_json(std::string_view text, JsonValue* out, std::string* error) {
  Parser p{text, 0, {}};
  JsonValue v;
  if (!p.parse_value(&v, 0)) {
    if (error) *error = p.err;
    return false;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    if (error) *error = "trailing garbage at offset " + std::to_string(p.i);
    return false;
  }
  *out = std::move(v);
  return true;
}

}  // namespace tcfpn::obs
