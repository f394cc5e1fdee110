#include "isa/assembler.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>
#include <sstream>

#include "common/check.hpp"

namespace tcfpn::isa {

namespace {

struct Line {
  int number = 0;
  std::string text;
};

[[noreturn]] void asm_error(int line, const std::string& msg) {
  TCFPN_FAULT("assembler error at line ", line, ": ", msg);
}

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Splits "a, b, [r1+2]" into comma-separated operand strings; brackets keep
/// their content intact (there are no nested brackets in the grammar).
std::vector<std::string> split_operands(const std::string& s, int line) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : s) {
    if (c == '[') ++depth;
    if (c == ']') {
      --depth;
      if (depth < 0) asm_error(line, "unbalanced ']'");
    }
    if (c == ',' && depth == 0) {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (depth != 0) asm_error(line, "unbalanced '['");
  const std::string last = strip(cur);
  if (!last.empty()) out.push_back(last);
  for (const auto& o : out) {
    if (o.empty()) asm_error(line, "empty operand");
  }
  return out;
}

bool is_identifier(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

class Pass {
 public:
  Pass(const std::string& source) {
    std::istringstream in(source);
    std::string raw;
    int n = 0;
    while (std::getline(in, raw)) {
      ++n;
      const std::size_t comment = raw.find(';');
      if (comment != std::string::npos) raw.erase(comment);
      const std::string text = strip(raw);
      if (!text.empty()) lines_.push_back(Line{n, text});
    }
  }

  Program run() {
    collect_symbols();
    emit();
    return std::move(program_);
  }

 private:
  // ---- pass 1: labels and .equ constants; counts instruction addresses ----
  void collect_symbols() {
    std::size_t pc = 0;
    for (const auto& line : lines_) {
      std::string rest = line.text;
      while (true) {
        const std::size_t colon = find_label_colon(rest);
        if (colon == std::string::npos) break;
        const std::string name = strip(rest.substr(0, colon));
        if (!is_identifier(name)) {
          asm_error(line.number, "bad label name '" + name + "'");
        }
        define_symbol(line.number, name, static_cast<Word>(pc),
                      /*is_label=*/true);
        rest = strip(rest.substr(colon + 1));
      }
      if (rest.empty()) continue;
      if (rest[0] == '.') {
        handle_directive_pass1(line.number, rest);
      } else {
        ++pc;
      }
    }
  }

  /// A label colon is a ':' that terminates a leading identifier.
  static std::size_t find_label_colon(const std::string& s) {
    std::size_t i = 0;
    while (i < s.size() &&
           (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_')) {
      ++i;
    }
    if (i > 0 && i < s.size() && s[i] == ':') return i;
    return std::string::npos;
  }

  void define_symbol(int line, const std::string& name, Word value,
                     bool is_label) {
    if (symbols_.contains(name)) {
      asm_error(line, "duplicate symbol '" + name + "'");
    }
    symbols_[name] = value;
    if (is_label) {
      program_.labels[name] = static_cast<std::size_t>(value);
    }
  }

  void handle_directive_pass1(int line, const std::string& text) {
    std::istringstream in(text);
    std::string word;
    in >> word;
    std::string rest;
    std::getline(in, rest);
    if (word == ".equ") {
      const auto ops = split_operands(strip(rest), line);
      if (ops.size() != 2) asm_error(line, ".equ needs NAME, value");
      if (!is_identifier(ops[0])) {
        asm_error(line, "bad .equ name '" + ops[0] + "'");
      }
      define_symbol(line, ops[0], parse_imm_pass1(line, ops[1]),
                    /*is_label=*/false);
    } else if (word == ".data") {
      // handled in pass 2 (values may reference labels)
    } else {
      asm_error(line, "unknown directive '" + word + "'");
    }
  }

  /// During pass 1 only already-defined symbols and literals may appear in
  /// .equ values (forward references to labels in .equ are not supported).
  Word parse_imm_pass1(int line, const std::string& s) {
    if (auto lit = parse_literal(s)) return *lit;
    auto it = symbols_.find(s);
    if (it == symbols_.end()) {
      asm_error(line, "unknown symbol in .equ: '" + s + "'");
    }
    return it->second;
  }

  static std::optional<Word> parse_literal(const std::string& s) {
    if (s.empty()) return std::nullopt;
    std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i]))) {
      return std::nullopt;
    }
    try {
      std::size_t pos = 0;
      const long long v = std::stoll(s, &pos, 0);  // base 0: dec/hex/oct
      if (pos != s.size()) return std::nullopt;
      return static_cast<Word>(v);
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  // ---- pass 2: emit instructions and data ----
  void emit() {
    for (const auto& line : lines_) {
      std::string rest = line.text;
      while (true) {
        const std::size_t colon = find_label_colon(rest);
        if (colon == std::string::npos) break;
        rest = strip(rest.substr(colon + 1));
      }
      if (rest.empty()) continue;
      if (rest[0] == '.') {
        handle_directive_pass2(line.number, rest);
      } else {
        program_.code.push_back(parse_instr(line.number, rest));
      }
    }
  }

  void handle_directive_pass2(int line, const std::string& text) {
    std::istringstream in(text);
    std::string word;
    in >> word;
    std::string rest;
    std::getline(in, rest);
    if (word == ".data") {
      const auto ops = split_operands(strip(rest), line);
      if (ops.size() < 2) asm_error(line, ".data needs addr, w0 [, w1 ...]");
      DataInit init;
      init.addr = static_cast<Addr>(resolve_imm(line, ops[0]));
      for (std::size_t i = 1; i < ops.size(); ++i) {
        init.words.push_back(resolve_imm(line, ops[i]));
      }
      program_.data.push_back(std::move(init));
    }
    // .equ already fully handled in pass 1.
  }

  Word resolve_imm(int line, const std::string& s) {
    if (auto lit = parse_literal(s)) return *lit;
    auto it = symbols_.find(s);
    if (it == symbols_.end()) {
      asm_error(line, "unknown symbol '" + s + "'");
    }
    return it->second;
  }

  static std::optional<std::uint8_t> parse_register(const std::string& s) {
    if (s.size() < 2 || (s[0] != 'r' && s[0] != 'R')) return std::nullopt;
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(s[i]))) {
        return std::nullopt;
      }
    }
    unsigned n = 0;
    if (std::from_chars(s.data() + 1, s.data() + s.size(), n).ec !=
            std::errc{} ||
        n >= kNumRegisters) {
      return std::nullopt;
    }
    return static_cast<std::uint8_t>(n);
  }

  std::uint8_t require_register(int line, const std::string& s) {
    auto r = parse_register(s);
    if (!r) asm_error(line, "expected register, got '" + s + "'");
    return *r;
  }

  std::int32_t require_imm(int line, const std::string& s) {
    const Word v = resolve_imm(line, s);
    if (v < INT32_MIN || v > INT32_MAX) {
      asm_error(line, "immediate out of 32-bit range: " + s);
    }
    return static_cast<std::int32_t>(v);
  }

  /// Parses "[rA]", "[rA+imm]", "[rA+imm+@]", "[rA+@]".
  void parse_mem(int line, const std::string& s, Instr& instr) {
    if (s.size() < 3 || s.front() != '[' || s.back() != ']') {
      asm_error(line, "expected memory operand [rA+imm], got '" + s + "'");
    }
    std::string body = s.substr(1, s.size() - 2);
    // Split on '+' (a leading '-' of the displacement stays attached).
    std::vector<std::string> parts;
    std::string cur;
    for (char c : body) {
      if (c == '+') {
        parts.push_back(strip(cur));
        cur.clear();
      } else {
        cur += c;
      }
    }
    parts.push_back(strip(cur));
    if (parts.empty() || parts[0].empty()) {
      asm_error(line, "memory operand needs a base register");
    }
    instr.ra = require_register(line, parts[0]);
    instr.imm = 0;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (parts[i] == "@") {
        instr.flags |= flag::kLaneAddr;
      } else if (!parts[i].empty()) {
        instr.imm += require_imm(line, parts[i]);
      } else {
        asm_error(line, "empty term in memory operand '" + s + "'");
      }
    }
  }

  Instr parse_instr(int line, const std::string& text) {
    std::istringstream in(text);
    std::string mnemonic;
    in >> mnemonic;
    std::string rest;
    std::getline(in, rest);
    const Opcode op = opcode_from_mnemonic(mnemonic);
    if (op == Opcode::kOpcodeCount) {
      asm_error(line, "unknown mnemonic '" + mnemonic + "'");
    }
    Instr instr;
    instr.op = op;
    const OpInfo& info = op_info(op);
    const auto ops = split_operands(strip(rest), line);
    auto need = [&](std::size_t n) {
      if (ops.size() != n) {
        asm_error(line, std::string(info.mnemonic) + " expects " +
                            std::to_string(n) + " operand(s), got " +
                            std::to_string(ops.size()));
      }
    };
    switch (info.format) {
      case OpFormat::kNone:
        need(0);
        break;
      case OpFormat::kRd:
        need(1);
        instr.rd = require_register(line, ops[0]);
        break;
      case OpFormat::kRdRaRb:
        need(3);
        instr.rd = require_register(line, ops[0]);
        instr.ra = require_register(line, ops[1]);
        if (auto r = parse_register(ops[2])) {
          instr.rb = *r;
        } else {
          instr.flags |= flag::kUseImm;
          instr.imm = require_imm(line, ops[2]);
        }
        break;
      case OpFormat::kRdImm:
        need(2);
        instr.rd = require_register(line, ops[0]);
        instr.imm = require_imm(line, ops[1]);
        break;
      case OpFormat::kRdMem:
        need(2);
        instr.rd = require_register(line, ops[0]);
        parse_mem(line, ops[1], instr);
        break;
      case OpFormat::kValMem:
        need(2);
        instr.rb = require_register(line, ops[0]);
        parse_mem(line, ops[1], instr);
        break;
      case OpFormat::kRdValMem:
        need(3);
        instr.rd = require_register(line, ops[0]);
        instr.rb = require_register(line, ops[1]);
        parse_mem(line, ops[2], instr);
        break;
      case OpFormat::kRaOrImm:
        need(1);
        if (auto r = parse_register(ops[0])) {
          instr.ra = *r;
        } else {
          instr.flags |= flag::kUseImm;
          instr.imm = require_imm(line, ops[0]);
        }
        break;
      case OpFormat::kImm:
        need(1);
        instr.imm = require_imm(line, ops[0]);
        break;
      case OpFormat::kRaImm:
        need(2);
        instr.ra = require_register(line, ops[0]);
        instr.imm = require_imm(line, ops[1]);
        break;
    }
    return instr;
  }

  std::vector<Line> lines_;
  std::unordered_map<std::string, Word> symbols_;
  Program program_;
};

}  // namespace

Program Assembler::assemble(const std::string& source) {
  return Pass(source).run();
}

Program assemble(const std::string& source) {
  return Assembler{}.assemble(source);
}

}  // namespace tcfpn::isa
