#include "lang/lexer.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>

#include "common/check.hpp"

namespace tcfpn::lang {

const char* to_string(Tok t) {
  switch (t) {
    case Tok::kEnd: return "<end>";
    case Tok::kIdent: return "identifier";
    case Tok::kNumber: return "number";
    case Tok::kHash: return "#";
    case Tok::kDot: return ".";
    case Tok::kAmp: return "&";
    case Tok::kLParen: return "(";
    case Tok::kRParen: return ")";
    case Tok::kLBrace: return "{";
    case Tok::kRBrace: return "}";
    case Tok::kLBracket: return "[";
    case Tok::kRBracket: return "]";
    case Tok::kSemi: return ";";
    case Tok::kColon: return ":";
    case Tok::kComma: return ",";
    case Tok::kAssign: return "=";
    case Tok::kPlusAssign: return "+=";
    case Tok::kMinusAssign: return "-=";
    case Tok::kStarAssign: return "*=";
    case Tok::kShlAssign: return "<<=";
    case Tok::kShrAssign: return ">>=";
    case Tok::kPlus: return "+";
    case Tok::kMinus: return "-";
    case Tok::kStar: return "*";
    case Tok::kSlash: return "/";
    case Tok::kPercent: return "%";
    case Tok::kShl: return "<<";
    case Tok::kShr: return ">>";
    case Tok::kLt: return "<";
    case Tok::kLe: return "<=";
    case Tok::kGt: return ">";
    case Tok::kGe: return ">=";
    case Tok::kEq: return "==";
    case Tok::kNe: return "!=";
    case Tok::kBitAnd: return "&";
    case Tok::kBitOr: return "|";
    case Tok::kBitXor: return "^";
    case Tok::kAndAnd: return "&&";
    case Tok::kOrOr: return "||";
    case Tok::kNot: return "!";
  }
  return "?";
}

std::vector<Token> lex(const std::string& src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1;
  auto push = [&](Tok kind, std::string text = {}, Word value = 0) {
    out.push_back(Token{kind, std::move(text), value, line});
  };
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // comments
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i + 1 >= src.size()) {
        TCFPN_FAULT("lex error at line ", line, ": unterminated /* comment");
      }
      i += 2;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t digits = i;
      int base = 10;
      if (c == '0' && i + 1 < src.size() &&
          (src[i + 1] == 'x' || src[i + 1] == 'X')) {
        digits = i + 2;
        base = 16;
      }
      const auto is_digit = [base](char d) {
        const auto u = static_cast<unsigned char>(d);
        return base == 16 ? std::isxdigit(u) != 0 : std::isdigit(u) != 0;
      };
      std::size_t end = digits;
      while (end < src.size() && is_digit(src[end])) ++end;
      Word v = 0;  // a bare "0x" reads as 0
      if (std::from_chars(src.data() + digits, src.data() + end, v, base).ec ==
          std::errc::result_out_of_range) {
        TCFPN_FAULT("lex error at line ", line, ": integer literal ",
                    src.substr(i, end - i), " is larger than ", INT64_MAX);
      }
      push(Tok::kNumber, {}, v);
      i = end;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t end = i;
      while (end < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[end])) ||
              src[end] == '_')) {
        ++end;
      }
      push(Tok::kIdent, src.substr(i, end - i));
      i = end;
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < src.size() && src[i + 1] == b;
    };
    auto three = [&](char a, char b, char d) {
      return c == a && i + 2 < src.size() && src[i + 1] == b &&
             src[i + 2] == d;
    };
    if (three('<', '<', '=')) { push(Tok::kShlAssign); i += 3; continue; }
    if (three('>', '>', '=')) { push(Tok::kShrAssign); i += 3; continue; }
    if (two('<', '<')) { push(Tok::kShl); i += 2; continue; }
    if (two('>', '>')) { push(Tok::kShr); i += 2; continue; }
    if (two('<', '=')) { push(Tok::kLe); i += 2; continue; }
    if (two('>', '=')) { push(Tok::kGe); i += 2; continue; }
    if (two('=', '=')) { push(Tok::kEq); i += 2; continue; }
    if (two('!', '=')) { push(Tok::kNe); i += 2; continue; }
    if (two('+', '=')) { push(Tok::kPlusAssign); i += 2; continue; }
    if (two('-', '=')) { push(Tok::kMinusAssign); i += 2; continue; }
    if (two('*', '=')) { push(Tok::kStarAssign); i += 2; continue; }
    if (two('&', '&')) { push(Tok::kAndAnd); i += 2; continue; }
    if (two('|', '|')) { push(Tok::kOrOr); i += 2; continue; }
    switch (c) {
      case '#': push(Tok::kHash); break;
      case '.': push(Tok::kDot); break;
      case '&': push(Tok::kAmp); break;
      case '(': push(Tok::kLParen); break;
      case ')': push(Tok::kRParen); break;
      case '{': push(Tok::kLBrace); break;
      case '}': push(Tok::kRBrace); break;
      case '[': push(Tok::kLBracket); break;
      case ']': push(Tok::kRBracket); break;
      case ';': push(Tok::kSemi); break;
      case ':': push(Tok::kColon); break;
      case ',': push(Tok::kComma); break;
      case '=': push(Tok::kAssign); break;
      case '+': push(Tok::kPlus); break;
      case '-': push(Tok::kMinus); break;
      case '*': push(Tok::kStar); break;
      case '/': push(Tok::kSlash); break;
      case '%': push(Tok::kPercent); break;
      case '<': push(Tok::kLt); break;
      case '>': push(Tok::kGt); break;
      case '|': push(Tok::kBitOr); break;
      case '^': push(Tok::kBitXor); break;
      case '!': push(Tok::kNot); break;
      default:
        TCFPN_FAULT("lex error at line ", line, ": unexpected character '",
                    std::string(1, c), "'");
    }
    ++i;
  }
  push(Tok::kEnd);
  return out;
}

}  // namespace tcfpn::lang
