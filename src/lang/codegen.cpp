#include "lang/codegen.hpp"

#include <cstdint>
#include <set>

#include "common/check.hpp"
#include "lang/parser.hpp"
#include "tcf/builder.hpp"

namespace tcfpn::lang {

namespace {

using tcf::AsmBuilder;
using tcf::Reg;

constexpr std::uint8_t kFirstVarReg = 1;   // r1..r7: scalar variables
constexpr std::uint8_t kLastVarReg = 7;
constexpr std::uint8_t kThickSave0 = 8;    // r8/r9: scoped-thickness saves
constexpr std::uint8_t kThickSave1 = 9;
constexpr std::uint8_t kFirstTempReg = 10; // r10..r15: expression stack
constexpr std::uint8_t kLastTempReg = 15;

class Codegen {
 public:
  Codegen(const ProgramAst& ast, Addr heap_base) : ast_(ast) {
    out_.heap_base = heap_base;
    Addr next = heap_base;
    // Lays `size` words out at `next`; the layout must end by INT64_MAX,
    // the largest word address.
    const auto place = [&](int line, const std::string& name,
                           std::size_t size) {
      constexpr auto kLastWord = static_cast<Addr>(INT64_MAX);
      if (next > kLastWord || size > kLastWord - next) {
        err(line, "array '", name, "' of ", size, " words at word ", next,
            " ends past word ", kLastWord);
      }
      const Addr base = next;
      next += size;
      return base;
    };
    for (const auto& a : ast.arrays) {
      declare(a.line, a.name);
      const Addr base = place(a.line, a.name, a.size);
      out_.arrays.emplace(a.name, tcf::Buffer{base, a.size});
      if (!a.init.empty()) builder_.data(base, a.init);
    }
    for (const auto& c : ast.cells) {
      declare(c.line, c.name);
      const Addr base = place(c.line, c.name, 1);
      out_.arrays.emplace(c.name, tcf::Buffer{base, 1});
      cells_.insert(c.name);
      if (c.init != 0) builder_.data(base, {c.init});
    }
    out_.heap_end = next;
    for (const auto& v : ast.vars) {
      declare(v.line, v.name);
      if (next_var_ > kLastVarReg) {
        err(v.line, "too many scalar variables (max ",
            kLastVarReg - kFirstVarReg + 1, "); use cells instead");
      }
      vars_.emplace(v.name, next_var_++);
    }
    for (const auto& f : ast.funcs) {
      declare(f.line, f.name);
      funcs_.emplace(f.name, builder_.make_label(f.name));
    }
  }

  Compiled run() {
    // Variable initialisers execute first, at boot thickness.
    for (const auto& v : ast_.vars) {
      if (v.init) {
        const std::uint8_t rs = eval(*v.init);
        builder_.add(Reg{vars_.at(v.name)}, Reg{rs}, Word{0});
        free_temp(rs);
      }
    }
    for (const auto& s : ast_.stmts) gen(*s);
    builder_.halt();
    // Parallel branch bodies (HALT epilogue) and function bodies (RET
    // epilogue) are emitted after the main body; a function body may itself
    // contain parallel{}, so the two queues drain together.
    std::size_t next_func = 0;
    while (!pending_.empty() || next_func < ast_.funcs.size()) {
      while (!pending_.empty()) {
        auto [label, stmt] = pending_.front();
        pending_.erase(pending_.begin());
        builder_.bind(label);
        gen(*stmt);
        builder_.halt();
      }
      if (next_func < ast_.funcs.size()) {
        const auto& f = ast_.funcs[next_func++];
        builder_.bind(funcs_.at(f.name));
        gen(*f.body);
        builder_.ret();
      }
    }
    out_.program = builder_.build();
    return std::move(out_);
  }

 private:
  template <typename... Args>
  [[noreturn]] void err(int line, const Args&... args) {
    TCFPN_FAULT("compile error at line ", line, ": ", args...);
  }

  void declare(int line, const std::string& name) {
    if (name == "id" || name == "thickness") {
      err(line, "'", name, "' is a reserved word");
    }
    if (out_.arrays.contains(name) || vars_.contains(name) ||
        funcs_.contains(name)) {
      err(line, "duplicate declaration of '", name, "'");
    }
  }

  const tcf::Buffer& array_of(int line, const std::string& name) {
    auto it = out_.arrays.find(name);
    if (it == out_.arrays.end()) err(line, "unknown array '", name, "'");
    return it->second;
  }

  Word base_imm(int line, const tcf::Buffer& b) {
    if (b.base > INT32_MAX) err(line, "array base beyond immediate range");
    return static_cast<Word>(b.base);
  }

  // ---- temp register stack ----
  std::uint8_t alloc_temp(int line) {
    if (temp_top_ > kLastTempReg) {
      err(line, "expression too deep (more than ",
          kLastTempReg - kFirstTempReg + 1, " live temporaries)");
    }
    return temp_top_++;
  }
  void free_temp(std::uint8_t r) {
    TCFPN_CHECK(r + 1 == temp_top_, "temporaries freed out of order");
    --temp_top_;
  }

  // ---- expressions: result in a fresh temp register ----
  std::uint8_t eval(const Expr& e) {
    using K = Expr::Kind;
    switch (e.kind) {
      case K::kNumber: {
        const std::uint8_t rs = alloc_temp(e.line);
        builder_.ldi(Reg{rs}, e.value);
        return rs;
      }
      case K::kVar: {
        const std::uint8_t rs = alloc_temp(e.line);
        if (auto it = vars_.find(e.name); it != vars_.end()) {
          builder_.add(Reg{rs}, Reg{it->second}, Word{0});
        } else if (cells_.contains(e.name)) {
          builder_.ld(Reg{rs}, tcf::r0,
                      base_imm(e.line, out_.arrays.at(e.name)));
        } else if (out_.arrays.contains(e.name)) {
          err(e.line, "'", e.name,
              "' is an array; use '", e.name, ".' or '", e.name, ".[i]'");
        } else {
          err(e.line, "unknown identifier '", e.name, "'");
        }
        return rs;
      }
      case K::kLaneId: {
        const std::uint8_t rs = alloc_temp(e.line);
        builder_.tid(Reg{rs});
        return rs;
      }
      case K::kThickness: {
        const std::uint8_t rs = alloc_temp(e.line);
        builder_.thickq(Reg{rs});
        return rs;
      }
      case K::kElem: {
        const auto& buf = array_of(e.line, e.name);
        if (e.lhs->kind == K::kLaneId) {
          const std::uint8_t rs = alloc_temp(e.line);
          builder_.ld(Reg{rs}, tcf::r0, base_imm(e.line, buf), true);
          return rs;
        }
        const std::uint8_t rs = eval(*e.lhs);
        builder_.add(Reg{rs}, Reg{rs}, base_imm(e.line, buf));
        builder_.ld(Reg{rs}, Reg{rs});
        return rs;
      }
      case K::kUnaryNeg: {
        const std::uint8_t rs = eval(*e.lhs);
        builder_.alu(isa::Opcode::kSub, Reg{rs}, tcf::r0, Reg{rs});
        return rs;
      }
      case K::kUnaryNot: {
        const std::uint8_t rs = eval(*e.lhs);
        builder_.alu(isa::Opcode::kSeq, Reg{rs}, Reg{rs}, Word{0});
        return rs;
      }
      case K::kBinary: {
        const std::uint8_t rs = eval(*e.lhs);
        const std::uint8_t rt = eval(*e.rhs);
        emit_binop(e.line, e.op, rs, rt);
        free_temp(rt);
        return rs;
      }
    }
    err(e.line, "unhandled expression kind");
  }

  void emit_binop(int line, BinOp op, std::uint8_t rs, std::uint8_t rt) {
    using O = isa::Opcode;
    auto r = [](std::uint8_t x) { return Reg{x}; };
    switch (op) {
      case BinOp::kAdd: builder_.alu(O::kAdd, r(rs), r(rs), r(rt)); return;
      case BinOp::kSub: builder_.alu(O::kSub, r(rs), r(rs), r(rt)); return;
      case BinOp::kMul: builder_.alu(O::kMul, r(rs), r(rs), r(rt)); return;
      case BinOp::kDiv: builder_.alu(O::kDiv, r(rs), r(rs), r(rt)); return;
      case BinOp::kMod: builder_.alu(O::kMod, r(rs), r(rs), r(rt)); return;
      case BinOp::kShl: builder_.alu(O::kShl, r(rs), r(rs), r(rt)); return;
      case BinOp::kShr: builder_.alu(O::kShr, r(rs), r(rs), r(rt)); return;
      case BinOp::kLt:  builder_.alu(O::kSlt, r(rs), r(rs), r(rt)); return;
      case BinOp::kLe:  builder_.alu(O::kSle, r(rs), r(rs), r(rt)); return;
      case BinOp::kGt:  builder_.alu(O::kSlt, r(rs), r(rt), r(rs)); return;
      case BinOp::kGe:  builder_.alu(O::kSle, r(rs), r(rt), r(rs)); return;
      case BinOp::kEq:  builder_.alu(O::kSeq, r(rs), r(rs), r(rt)); return;
      case BinOp::kNe:  builder_.alu(O::kSne, r(rs), r(rs), r(rt)); return;
      case BinOp::kAnd: builder_.alu(O::kAnd, r(rs), r(rs), r(rt)); return;
      case BinOp::kOr:  builder_.alu(O::kOr, r(rs), r(rs), r(rt)); return;
      case BinOp::kXor: builder_.alu(O::kXor, r(rs), r(rs), r(rt)); return;
      case BinOp::kLAnd:
        builder_.alu(O::kSne, r(rs), r(rs), Word{0});
        builder_.alu(O::kSne, r(rt), r(rt), Word{0});
        builder_.alu(O::kAnd, r(rs), r(rs), r(rt));
        return;
      case BinOp::kLOr:
        builder_.alu(O::kOr, r(rs), r(rs), r(rt));
        builder_.alu(O::kSne, r(rs), r(rs), Word{0});
        return;
    }
    err(line, "unhandled binary operator");
  }

  // ---- statements ----
  void gen(const Stmt& s) {
    using K = Stmt::Kind;
    switch (s.kind) {
      case K::kSetThickness: {
        const std::uint8_t rs = eval(*s.thickness);
        builder_.setthick(Reg{rs});
        free_temp(rs);
        return;
      }
      case K::kNumaSet:
        builder_.numaset(s.value);
        return;
      case K::kThickPrefixed: {
        if (thick_save_depth_ >= 2) {
          err(s.line, "scoped thickness statements nest at most twice");
        }
        const std::uint8_t save =
            thick_save_depth_ == 0 ? kThickSave0 : kThickSave1;
        ++thick_save_depth_;
        builder_.thickq(Reg{save});
        const std::uint8_t rs = eval(*s.thickness);
        builder_.setthick(Reg{rs});
        free_temp(rs);
        gen(*s.body[0]);
        builder_.setthick(Reg{save});
        --thick_save_depth_;
        return;
      }
      case K::kAssign:
        gen_assign(s);
        return;
      case K::kParallel: {
        for (std::size_t i = 0; i < s.body.size(); ++i) {
          const auto label = builder_.make_label();
          const std::uint8_t rs = eval(*s.branch_thickness[i]);
          builder_.spawn(Reg{rs}, label);
          free_temp(rs);
          pending_.emplace_back(label, s.body[i].get());
        }
        builder_.joinall();
        return;
      }
      case K::kNumaBlock:
        builder_.numaset(s.value);
        gen(*s.body[0]);
        builder_.numaset(0);
        return;
      case K::kIf: {
        const auto else_l = builder_.make_label();
        const std::uint8_t rs = eval(*s.thickness);
        builder_.beqz(Reg{rs}, else_l);
        free_temp(rs);
        gen(*s.body[0]);
        if (s.body.size() > 1) {
          const auto end_l = builder_.make_label();
          builder_.jmp(end_l);
          builder_.bind(else_l);
          gen(*s.body[1]);
          builder_.bind(end_l);
        } else {
          builder_.bind(else_l);
        }
        return;
      }
      case K::kWhile: {
        const auto loop_l = builder_.make_label();
        const auto end_l = builder_.make_label();
        builder_.bind(loop_l);
        const std::uint8_t rs = eval(*s.thickness);
        builder_.beqz(Reg{rs}, end_l);
        free_temp(rs);
        gen(*s.body[0]);
        builder_.jmp(loop_l);
        builder_.bind(end_l);
        return;
      }
      case K::kFor: {
        if (s.body[0]) gen(*s.body[0]);
        const auto loop_l = builder_.make_label();
        const auto end_l = builder_.make_label();
        builder_.bind(loop_l);
        if (s.thickness) {
          const std::uint8_t rs = eval(*s.thickness);
          builder_.beqz(Reg{rs}, end_l);
          free_temp(rs);
        }
        gen(*s.body[2]);
        if (s.body[1]) gen(*s.body[1]);
        builder_.jmp(loop_l);
        builder_.bind(end_l);
        return;
      }
      case K::kBlock:
        for (const auto& child : s.body) gen(*child);
        return;
      case K::kPrefix: {
        const auto& src = array_of(s.line, s.src_array);
        const auto& dst = array_of(s.line, s.dst_array);
        const auto& cell = array_of(s.line, s.sum_cell);
        const std::uint8_t rv = alloc_temp(s.line);
        const std::uint8_t rp = alloc_temp(s.line);
        builder_.ld(Reg{rv}, tcf::r0, base_imm(s.line, src), true);
        const auto pp = static_cast<isa::Opcode>(
            static_cast<int>(isa::Opcode::kPpAdd) + static_cast<int>(s.mop));
        builder_.pp(pp, Reg{rp}, Reg{rv}, tcf::r0, base_imm(s.line, cell));
        builder_.st(Reg{rp}, tcf::r0, base_imm(s.line, dst), true);
        free_temp(rp);
        free_temp(rv);
        return;
      }
      case K::kMulti: {
        // Combining multioperation: all same-address contributions of the
        // step merge in the active memory (no read-modify-write race).
        const auto& buf = array_of(s.line, s.target);
        const std::uint8_t rv = eval(*s.thickness);  // contribution
        const auto mp = static_cast<isa::Opcode>(
            static_cast<int>(isa::Opcode::kMpAdd) + static_cast<int>(s.mop));
        if (s.target_index->kind == Expr::Kind::kLaneId) {
          builder_.mp(mp, Reg{rv}, tcf::r0, base_imm(s.line, buf), true);
        } else {
          const std::uint8_t ra = eval(*s.target_index);
          builder_.add(Reg{ra}, Reg{ra}, base_imm(s.line, buf));
          builder_.mp(mp, Reg{rv}, Reg{ra});
          free_temp(ra);
        }
        free_temp(rv);
        return;
      }
      case K::kPrint: {
        const std::uint8_t rs = eval(*s.thickness);
        builder_.print(Reg{rs});
        free_temp(rs);
        return;
      }
      case K::kCall: {
        // The flow calls the method ONCE, whatever its thickness: CALL is a
        // control instruction (one op per flow), and the return address
        // goes on the flow's call stack — Section 2.2's novel semantics.
        auto it = funcs_.find(s.target);
        if (it == funcs_.end()) {
          err(s.line, "unknown function '", s.target, "'");
        }
        builder_.call(it->second);
        return;
      }
    }
    err(s.line, "unhandled statement kind");
  }

  void gen_assign(const Stmt& s) {
    const std::uint8_t rs = eval(*s.thickness);  // rhs value
    auto apply = [&](std::uint8_t dst, std::uint8_t src) {
      using O = isa::Opcode;
      auto r = [](std::uint8_t x) { return Reg{x}; };
      switch (s.assign_op) {
        case AssignOp::kSet: builder_.add(r(dst), r(src), Word{0}); return;
        case AssignOp::kAdd: builder_.alu(O::kAdd, r(dst), r(dst), r(src)); return;
        case AssignOp::kSub: builder_.alu(O::kSub, r(dst), r(dst), r(src)); return;
        case AssignOp::kMul: builder_.alu(O::kMul, r(dst), r(dst), r(src)); return;
        case AssignOp::kShl: builder_.alu(O::kShl, r(dst), r(dst), r(src)); return;
        case AssignOp::kShr: builder_.alu(O::kShr, r(dst), r(dst), r(src)); return;
      }
    };

    if (!s.target_is_elem) {
      if (auto it = vars_.find(s.target); it != vars_.end()) {
        apply(it->second, rs);
        free_temp(rs);
        return;
      }
      if (cells_.contains(s.target)) {
        const Word base = base_imm(s.line, out_.arrays.at(s.target));
        if (s.assign_op == AssignOp::kSet) {
          builder_.st(Reg{rs}, tcf::r0, base);
        } else {
          const std::uint8_t rt = alloc_temp(s.line);
          builder_.ld(Reg{rt}, tcf::r0, base);
          apply(rt, rs);
          builder_.st(Reg{rt}, tcf::r0, base);
          free_temp(rt);
        }
        free_temp(rs);
        return;
      }
      err(s.line, "unknown variable '", s.target, "'");
    }

    // array element
    const auto& buf = array_of(s.line, s.target);
    const Word base = base_imm(s.line, buf);
    if (s.target_index->kind == Expr::Kind::kLaneId) {
      if (s.assign_op == AssignOp::kSet) {
        builder_.st(Reg{rs}, tcf::r0, base, true);
      } else {
        const std::uint8_t rt = alloc_temp(s.line);
        builder_.ld(Reg{rt}, tcf::r0, base, true);
        apply(rt, rs);
        builder_.st(Reg{rt}, tcf::r0, base, true);
        free_temp(rt);
      }
      free_temp(rs);
      return;
    }
    const std::uint8_t ra = eval(*s.target_index);
    builder_.add(Reg{ra}, Reg{ra}, base);  // ra = &target[index]
    if (s.assign_op == AssignOp::kSet) {
      builder_.st(Reg{rs}, Reg{ra});
    } else {
      const std::uint8_t rt = alloc_temp(s.line);
      builder_.ld(Reg{rt}, Reg{ra});
      apply(rt, rs);
      builder_.st(Reg{rt}, Reg{ra});
      free_temp(rt);
    }
    free_temp(ra);
    free_temp(rs);
    return;
  }

  const ProgramAst& ast_;
  AsmBuilder builder_;
  Compiled out_;
  std::map<std::string, std::uint8_t> vars_;
  std::map<std::string, AsmBuilder::Label> funcs_;
  std::set<std::string> cells_;
  std::uint8_t next_var_ = kFirstVarReg;
  std::uint8_t temp_top_ = kFirstTempReg;
  int thick_save_depth_ = 0;
  std::vector<std::pair<AsmBuilder::Label, const Stmt*>> pending_;
};

}  // namespace

const tcf::Buffer& Compiled::buffer(const std::string& name) const {
  auto it = arrays.find(name);
  TCFPN_CHECK(it != arrays.end(), "unknown array/cell '", name, "'");
  return it->second;
}

Compiled compile(const ProgramAst& ast, Addr heap_base) {
  return Codegen(ast, heap_base).run();
}

Compiled compile_source(const std::string& source, Addr heap_base) {
  return compile(parse(source), heap_base);
}

}  // namespace tcfpn::lang
