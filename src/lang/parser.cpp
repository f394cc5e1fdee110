#include "lang/parser.hpp"

#include "common/check.hpp"
#include "lang/lexer.hpp"

namespace tcfpn::lang {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& src) : toks_(lex(src)) {}

  ProgramAst run() {
    ProgramAst prog;
    while (!at_end()) {
      if (is_kw("array")) {
        prog.arrays.push_back(parse_array_decl());
      } else if (is_kw("var")) {
        prog.vars.push_back(parse_var_decl());
      } else if (is_kw("cell")) {
        prog.cells.push_back(parse_cell_decl());
      } else if (is_kw("func")) {
        prog.funcs.push_back(parse_func_decl());
      } else {
        break;
      }
    }
    while (!at_end()) {
      if (is_kw("func")) {
        prog.funcs.push_back(parse_func_decl());
      } else {
        prog.stmts.push_back(parse_stmt());
      }
    }
    return prog;
  }

 private:
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(std::size_t n = 1) const {
    return toks_[std::min(pos_ + n, toks_.size() - 1)];
  }
  bool at_end() const { return cur().kind == Tok::kEnd; }
  Token advance() { return toks_[pos_++]; }

  [[noreturn]] void error(const std::string& msg) const {
    TCFPN_FAULT("parse error at line ", cur().line, ": ", msg);
  }

  bool is(Tok k) const { return cur().kind == k; }
  bool is_kw(const char* kw) const {
    return cur().kind == Tok::kIdent && cur().text == kw;
  }
  bool accept(Tok k) {
    if (!is(k)) return false;
    ++pos_;
    return true;
  }
  void expect(Tok k, const char* what) {
    if (!accept(k)) {
      error(std::string("expected ") + to_string(k) + " " + what + ", got '" +
            (cur().kind == Tok::kIdent ? cur().text : to_string(cur().kind)) +
            "'");
    }
  }
  std::string expect_ident(const char* what) {
    if (!is(Tok::kIdent)) error(std::string("expected identifier ") + what);
    return advance().text;
  }
  Word expect_number(const char* what) {
    if (!is(Tok::kNumber)) error(std::string("expected number ") + what);
    return advance().value;
  }

  // ---- declarations ----
  ArrayDecl parse_array_decl() {
    ArrayDecl d;
    d.line = cur().line;
    advance();  // 'array'
    d.name = expect_ident("after 'array'");
    expect(Tok::kLBracket, "for array size");
    const Word size = parse_const_expr();
    if (size < 1) {
      error("array '" + d.name + "' has size " + std::to_string(size) +
            "; sizes must be >= 1");
    }
    d.size = static_cast<std::size_t>(size);
    expect(Tok::kRBracket, "after array size");
    if (accept(Tok::kAssign)) {
      expect(Tok::kLBrace, "for array initialiser");
      while (!is(Tok::kRBrace)) {
        bool neg = accept(Tok::kMinus);
        const Word v = expect_number("in array initialiser");
        d.init.push_back(neg ? -v : v);
        if (!accept(Tok::kComma)) break;
      }
      expect(Tok::kRBrace, "to close array initialiser");
      if (d.init.size() > d.size) {
        error("array initialiser longer than the array");
      }
    }
    expect(Tok::kSemi, "after array declaration");
    return d;
  }

  VarDecl parse_var_decl() {
    VarDecl d;
    d.line = cur().line;
    advance();  // 'var'
    d.name = expect_ident("after 'var'");
    if (accept(Tok::kAssign)) d.init = parse_expr();
    expect(Tok::kSemi, "after var declaration");
    return d;
  }

  FuncDecl parse_func_decl() {
    FuncDecl d;
    d.line = cur().line;
    advance();  // 'func'
    d.name = expect_ident("after 'func'");
    expect(Tok::kLParen, "after function name");
    expect(Tok::kRParen, "— functions take no parameters; use vars/cells");
    d.body = parse_stmt();
    return d;
  }

  CellDecl parse_cell_decl() {
    CellDecl d;
    d.line = cur().line;
    advance();  // 'cell'
    d.name = expect_ident("after 'cell'");
    if (accept(Tok::kAssign)) {
      const bool neg = accept(Tok::kMinus);
      d.init = expect_number("as cell initialiser");
      if (neg) d.init = -d.init;
    }
    expect(Tok::kSemi, "after cell declaration");
    return d;
  }

  /// Constant expressions: literals with + - * / % << >> and parens.
  Word parse_const_expr() {
    ExprPtr e = parse_expr();
    return eval_const(*e);
  }

  /// Folds with the ISA's arithmetic: wrapping 64-bit, shift amounts
  /// masked to 0..63 (SHR is logical), truncating divides with
  /// INT64_MIN / -1 giving INT64_MIN and remainder 0.
  Word eval_const(const Expr& e) {
    const auto u = [](Word w) { return static_cast<std::uint64_t>(w); };
    switch (e.kind) {
      case Expr::Kind::kNumber:
        return e.value;
      case Expr::Kind::kUnaryNeg:
        return static_cast<Word>(0 - u(eval_const(*e.lhs)));
      case Expr::Kind::kBinary: {
        const Word a = eval_const(*e.lhs);
        const Word b = eval_const(*e.rhs);
        switch (e.op) {
          case BinOp::kAdd: return static_cast<Word>(u(a) + u(b));
          case BinOp::kSub: return static_cast<Word>(u(a) - u(b));
          case BinOp::kMul: return static_cast<Word>(u(a) * u(b));
          case BinOp::kDiv:
            if (b == 0) error("division by zero in constant expression");
            return b == -1 ? static_cast<Word>(0 - u(a)) : a / b;
          case BinOp::kMod:
            if (b == 0) error("modulo by zero in constant expression");
            return b == -1 ? 0 : a % b;
          case BinOp::kShl: return static_cast<Word>(u(a) << (u(b) & 63));
          case BinOp::kShr: return static_cast<Word>(u(a) >> (u(b) & 63));
          default:
            error("operator not allowed in constant expression");
        }
      }
      default:
        error("expected a constant expression");
    }
  }

  // ---- statements ----
  StmtPtr parse_stmt() {
    const int line = cur().line;
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;

    if (accept(Tok::kHash)) {
      ExprPtr e = parse_expr();
      // `#1/K` => NUMA block length K (the paper's 1-over-T thickness).
      if (e->kind == Expr::Kind::kBinary && e->op == BinOp::kDiv &&
          e->lhs->kind == Expr::Kind::kNumber && e->lhs->value == 1) {
        stmt->kind = Stmt::Kind::kNumaSet;
        stmt->value = eval_const(*e->rhs);
        if (stmt->value < 1) error("NUMA block length must be >= 1");
        expect(Tok::kSemi, "after #1/T statement");
        return stmt;
      }
      if (accept(Tok::kColon)) {
        stmt->kind = Stmt::Kind::kThickPrefixed;
        stmt->thickness = std::move(e);
        stmt->body.push_back(parse_stmt());
        return stmt;
      }
      stmt->kind = Stmt::Kind::kSetThickness;
      stmt->thickness = std::move(e);
      expect(Tok::kSemi, "after thickness statement");
      return stmt;
    }
    if (is_kw("numa")) {
      advance();
      expect(Tok::kLParen, "after 'numa'");
      stmt->kind = Stmt::Kind::kNumaBlock;
      stmt->value = parse_const_expr();
      if (stmt->value < 1) error("NUMA block length must be >= 1");
      expect(Tok::kRParen, "after numa block length");
      stmt->body.push_back(parse_stmt());
      return stmt;
    }
    if (is_kw("parallel")) {
      advance();
      expect(Tok::kLBrace, "after 'parallel'");
      stmt->kind = Stmt::Kind::kParallel;
      while (!accept(Tok::kRBrace)) {
        expect(Tok::kHash, "to open a parallel branch (#thickness: stmt)");
        stmt->branch_thickness.push_back(parse_expr());
        expect(Tok::kColon, "after branch thickness");
        stmt->body.push_back(parse_stmt());
      }
      if (stmt->body.empty()) error("parallel{} needs at least one branch");
      return stmt;
    }
    if (is_kw("if")) {
      advance();
      expect(Tok::kLParen, "after 'if'");
      stmt->kind = Stmt::Kind::kIf;
      stmt->thickness = parse_expr();
      expect(Tok::kRParen, "after if condition");
      stmt->body.push_back(parse_stmt());
      if (is_kw("else")) {
        advance();
        stmt->body.push_back(parse_stmt());
      }
      return stmt;
    }
    if (is_kw("while")) {
      advance();
      expect(Tok::kLParen, "after 'while'");
      stmt->kind = Stmt::Kind::kWhile;
      stmt->thickness = parse_expr();
      expect(Tok::kRParen, "after while condition");
      stmt->body.push_back(parse_stmt());
      return stmt;
    }
    if (is_kw("for")) {
      advance();
      expect(Tok::kLParen, "after 'for'");
      stmt->kind = Stmt::Kind::kFor;
      stmt->body.resize(3);
      if (!is(Tok::kSemi)) stmt->body[0] = parse_simple();
      expect(Tok::kSemi, "after for-init");
      if (!is(Tok::kSemi)) stmt->thickness = parse_expr();
      expect(Tok::kSemi, "after for-condition");
      if (!is(Tok::kRParen)) stmt->body[1] = parse_simple();
      expect(Tok::kRParen, "after for-step");
      stmt->body[2] = parse_stmt();
      return stmt;
    }
    if (is_kw("prefix")) {
      advance();
      expect(Tok::kLParen, "after 'prefix'");
      stmt->kind = Stmt::Kind::kPrefix;
      stmt->src_array = expect_ident("as prefix source array");
      expect(Tok::kComma, "after prefix source");
      const std::string mop = expect_ident("as multioperation");
      if (mop == "MPADD") stmt->mop = mem::MultiOp::kAdd;
      else if (mop == "MPMAX") stmt->mop = mem::MultiOp::kMax;
      else if (mop == "MPMIN") stmt->mop = mem::MultiOp::kMin;
      else if (mop == "MPAND") stmt->mop = mem::MultiOp::kAnd;
      else if (mop == "MPOR") stmt->mop = mem::MultiOp::kOr;
      else error("unknown multioperation '" + mop + "'");
      expect(Tok::kComma, "after multioperation");
      expect(Tok::kAmp, "before the sum cell (&cell)");
      stmt->sum_cell = expect_ident("as the sum cell");
      expect(Tok::kComma, "after the sum cell");
      stmt->dst_array = expect_ident("as prefix destination array");
      expect(Tok::kRParen, "to close prefix(...)");
      expect(Tok::kSemi, "after prefix statement");
      return stmt;
    }
    if (is_kw("multi")) {
      advance();
      expect(Tok::kLParen, "after 'multi'");
      stmt->kind = Stmt::Kind::kMulti;
      stmt->target = expect_ident("as multioperation target array");
      expect(Tok::kDot, "— multi() targets an array element (arr.[i])");
      if (accept(Tok::kLBracket)) {
        stmt->target_index = parse_expr();
        expect(Tok::kRBracket, "after element index");
      } else {
        auto idx = std::make_unique<Expr>();
        idx->kind = Expr::Kind::kLaneId;
        idx->line = stmt->line;
        stmt->target_index = std::move(idx);
      }
      stmt->target_is_elem = true;
      expect(Tok::kComma, "after multi target");
      const std::string mop = expect_ident("as multioperation");
      if (mop == "MPADD") stmt->mop = mem::MultiOp::kAdd;
      else if (mop == "MPMAX") stmt->mop = mem::MultiOp::kMax;
      else if (mop == "MPMIN") stmt->mop = mem::MultiOp::kMin;
      else if (mop == "MPAND") stmt->mop = mem::MultiOp::kAnd;
      else if (mop == "MPOR") stmt->mop = mem::MultiOp::kOr;
      else error("unknown multioperation '" + mop + "'");
      expect(Tok::kComma, "after multioperation");
      stmt->thickness = parse_expr();  // the contribution value
      expect(Tok::kRParen, "to close multi(...)");
      expect(Tok::kSemi, "after multi statement");
      return stmt;
    }
    if (is_kw("print")) {
      advance();
      expect(Tok::kLParen, "after 'print'");
      stmt->kind = Stmt::Kind::kPrint;
      stmt->thickness = parse_expr();
      expect(Tok::kRParen, "after print argument");
      expect(Tok::kSemi, "after print statement");
      return stmt;
    }
    if (accept(Tok::kLBrace)) {
      stmt->kind = Stmt::Kind::kBlock;
      while (!accept(Tok::kRBrace)) stmt->body.push_back(parse_stmt());
      return stmt;
    }
    // simple statement
    StmtPtr simple = parse_simple();
    expect(Tok::kSemi, "after statement");
    return simple;
  }

  StmtPtr parse_simple() {
    auto stmt = std::make_unique<Stmt>();
    stmt->line = cur().line;
    // `name();` — flow-level call.
    if (is(Tok::kIdent) && peek(1).kind == Tok::kLParen) {
      stmt->kind = Stmt::Kind::kCall;
      stmt->target = advance().text;
      expect(Tok::kLParen, "in call");
      expect(Tok::kRParen, "in call");
      return stmt;
    }
    stmt->kind = Stmt::Kind::kAssign;
    stmt->target = expect_ident("as assignment target");
    if (accept(Tok::kDot)) {
      stmt->target_is_elem = true;
      if (accept(Tok::kLBracket)) {
        stmt->target_index = parse_expr();
        expect(Tok::kRBracket, "after element index");
      } else {
        // `a.` is shorthand for `a.[id]`
        auto idx = std::make_unique<Expr>();
        idx->kind = Expr::Kind::kLaneId;
        idx->line = stmt->line;
        stmt->target_index = std::move(idx);
      }
    }
    switch (cur().kind) {
      case Tok::kAssign: stmt->assign_op = AssignOp::kSet; break;
      case Tok::kPlusAssign: stmt->assign_op = AssignOp::kAdd; break;
      case Tok::kMinusAssign: stmt->assign_op = AssignOp::kSub; break;
      case Tok::kStarAssign: stmt->assign_op = AssignOp::kMul; break;
      case Tok::kShlAssign: stmt->assign_op = AssignOp::kShl; break;
      case Tok::kShrAssign: stmt->assign_op = AssignOp::kShr; break;
      default: error("expected an assignment operator");
    }
    advance();
    stmt->thickness = parse_expr();
    return stmt;
  }

  // ---- expressions (precedence climbing) ----
  ExprPtr parse_expr() { return parse_binary(0); }

  static int precedence(Tok t) {
    switch (t) {
      case Tok::kOrOr: return 1;
      case Tok::kAndAnd: return 2;
      case Tok::kBitOr: return 3;
      case Tok::kBitXor: return 4;
      case Tok::kBitAnd: case Tok::kAmp: return 5;
      case Tok::kEq: case Tok::kNe: return 6;
      case Tok::kLt: case Tok::kLe: case Tok::kGt: case Tok::kGe: return 7;
      case Tok::kShl: case Tok::kShr: return 8;
      case Tok::kPlus: case Tok::kMinus: return 9;
      case Tok::kStar: case Tok::kSlash: case Tok::kPercent: return 10;
      default: return -1;
    }
  }

  static BinOp binop_of(Tok t) {
    switch (t) {
      case Tok::kOrOr: return BinOp::kLOr;
      case Tok::kAndAnd: return BinOp::kLAnd;
      case Tok::kBitOr: return BinOp::kOr;
      case Tok::kBitXor: return BinOp::kXor;
      case Tok::kBitAnd: case Tok::kAmp: return BinOp::kAnd;
      case Tok::kEq: return BinOp::kEq;
      case Tok::kNe: return BinOp::kNe;
      case Tok::kLt: return BinOp::kLt;
      case Tok::kLe: return BinOp::kLe;
      case Tok::kGt: return BinOp::kGt;
      case Tok::kGe: return BinOp::kGe;
      case Tok::kShl: return BinOp::kShl;
      case Tok::kShr: return BinOp::kShr;
      case Tok::kPlus: return BinOp::kAdd;
      case Tok::kMinus: return BinOp::kSub;
      case Tok::kStar: return BinOp::kMul;
      case Tok::kSlash: return BinOp::kDiv;
      case Tok::kPercent: return BinOp::kMod;
      default: TCFPN_FAULT("not a binary operator");
    }
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    while (true) {
      const int prec = precedence(cur().kind);
      if (prec < min_prec || prec < 0) return lhs;
      const Tok op = advance().kind;
      ExprPtr rhs = parse_binary(prec + 1);
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = binop_of(op);
      e->line = lhs->line;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    const int line = cur().line;
    if (accept(Tok::kMinus)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnaryNeg;
      e->line = line;
      e->lhs = parse_unary();
      return e;
    }
    if (accept(Tok::kNot)) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnaryNot;
      e->line = line;
      e->lhs = parse_unary();
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    auto e = std::make_unique<Expr>();
    e->line = cur().line;
    if (is(Tok::kNumber)) {
      e->kind = Expr::Kind::kNumber;
      e->value = advance().value;
      return e;
    }
    if (accept(Tok::kLParen)) {
      ExprPtr inner = parse_expr();
      expect(Tok::kRParen, "to close parenthesised expression");
      return inner;
    }
    if (is(Tok::kIdent)) {
      const std::string name = advance().text;
      if (name == "id") {
        e->kind = Expr::Kind::kLaneId;
        return e;
      }
      if (name == "thickness") {
        e->kind = Expr::Kind::kThickness;
        return e;
      }
      if (accept(Tok::kDot)) {
        e->kind = Expr::Kind::kElem;
        e->name = name;
        if (accept(Tok::kLBracket)) {
          e->lhs = parse_expr();
          expect(Tok::kRBracket, "after element index");
        } else {
          auto idx = std::make_unique<Expr>();
          idx->kind = Expr::Kind::kLaneId;
          idx->line = e->line;
          e->lhs = std::move(idx);
        }
        return e;
      }
      e->kind = Expr::Kind::kVar;
      e->name = name;
      return e;
    }
    error("expected an expression");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

ProgramAst parse(const std::string& source) { return Parser(source).run(); }

}  // namespace tcfpn::lang
