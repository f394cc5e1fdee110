// Tests for the TCF source language: lexer, parser, codegen, and — most
// importantly — the paper's Section 4 snippets executing correctly on the
// simulated extended PRAM-NUMA machine.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "lang/codegen.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "machine/machine.hpp"

namespace tcfpn::lang {
namespace {

machine::MachineConfig cfg4() {
  machine::MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  return cfg;
}

/// Compiles, runs to completion, returns the machine for inspection.
std::unique_ptr<machine::Machine> run_src(const std::string& src,
                                          const Compiled** out = nullptr,
                                          machine::MachineConfig cfg =
                                              cfg4()) {
  static Compiled compiled;  // keep layout alive for the caller
  compiled = compile_source(src);
  if (out) *out = &compiled;
  auto m = std::make_unique<machine::Machine>(cfg);
  m->load(compiled.program);
  m->boot(1);
  const auto res = m->run();
  TCFPN_CHECK(res.completed, "program did not halt");
  return m;
}

// ---- lexer ----

TEST(Lexer, TokenKindsAndLines) {
  const auto toks = lex("#n;\nc. = a.[id-1] + 2; // tail\n<<= >>= && ||");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::kHash);
  EXPECT_EQ(toks[1].kind, Tok::kIdent);
  EXPECT_EQ(toks[1].text, "n");
  EXPECT_EQ(toks[2].kind, Tok::kSemi);
  EXPECT_EQ(toks[3].line, 2);
  // find the <<= on line 3
  bool found = false;
  for (const auto& t : toks) {
    if (t.kind == Tok::kShlAssign) {
      EXPECT_EQ(t.line, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lexer, CommentsAndHex) {
  const auto toks = lex("/* multi\nline */ 0x10 q");
  EXPECT_EQ(toks[0].kind, Tok::kNumber);
  EXPECT_EQ(toks[0].value, 16);
  EXPECT_EQ(toks[0].line, 2);
}

TEST(Lexer, RejectsBadInput) {
  EXPECT_THROW(lex("a $ b"), SimError);
  EXPECT_THROW(lex("/* never closed"), SimError);
}

// ---- parser ----

TEST(Parser, DeclarationsAndStatements) {
  const auto ast = parse(R"(
      array a[8] = {1, 2, 3};
      var n = 8;
      cell sum;
      #n;
      a. = a. + 1;
  )");
  ASSERT_EQ(ast.arrays.size(), 1u);
  EXPECT_EQ(ast.arrays[0].size, 8u);
  EXPECT_EQ(ast.arrays[0].init, (std::vector<Word>{1, 2, 3}));
  ASSERT_EQ(ast.vars.size(), 1u);
  ASSERT_EQ(ast.cells.size(), 1u);
  ASSERT_EQ(ast.stmts.size(), 2u);
  EXPECT_EQ(ast.stmts[0]->kind, Stmt::Kind::kSetThickness);
  EXPECT_EQ(ast.stmts[1]->kind, Stmt::Kind::kAssign);
  EXPECT_TRUE(ast.stmts[1]->target_is_elem);
}

TEST(Parser, NumaShorthand) {
  const auto ast = parse("#1/8;");
  ASSERT_EQ(ast.stmts.size(), 1u);
  EXPECT_EQ(ast.stmts[0]->kind, Stmt::Kind::kNumaSet);
  EXPECT_EQ(ast.stmts[0]->value, 8);
}

TEST(Parser, ParallelBranches) {
  const auto ast = parse(R"(
      array c[8];
      parallel {
        #4: c. = 1;
        #4: c.[4 + id] = 0;
      }
  )");
  ASSERT_EQ(ast.stmts.size(), 1u);
  EXPECT_EQ(ast.stmts[0]->kind, Stmt::Kind::kParallel);
  EXPECT_EQ(ast.stmts[0]->body.size(), 2u);
}

TEST(Parser, PrefixBuiltin) {
  const auto ast = parse(R"(
      array s[4]; array d[4]; cell total;
      prefix(s, MPADD, &total, d);
  )");
  const auto& st = *ast.stmts[0];
  EXPECT_EQ(st.kind, Stmt::Kind::kPrefix);
  EXPECT_EQ(st.src_array, "s");
  EXPECT_EQ(st.dst_array, "d");
  EXPECT_EQ(st.sum_cell, "total");
  EXPECT_EQ(st.mop, mem::MultiOp::kAdd);
}

struct BadSrc {
  const char* name;
  const char* src;
};
class ParserErrors : public ::testing::TestWithParam<BadSrc> {};
TEST_P(ParserErrors, Rejects) {
  EXPECT_THROW(parse(GetParam().src), SimError);
}
INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrors,
    ::testing::Values(
        BadSrc{"missing_semi", "#4"},
        BadSrc{"bad_branch", "parallel { 4: x = 1; }"},
        BadSrc{"empty_parallel", "parallel { }"},
        BadSrc{"bad_mop", "array s[1]; array d[1]; cell c;"
                          " prefix(s, MPFOO, &c, d);"},
        BadSrc{"numa_zero", "#1/0;"},
        BadSrc{"array_size_var", "var n = 4; array a[n];"},
        BadSrc{"stray_rbrace", "}"},
        BadSrc{"literal_past_int64", "array a[9223372036854775808];"},
        BadSrc{"hex_literal_past_int64", "array a[0x8000000000000000];"}),
    [](const auto& inf) { return std::string(inf.param.name); });

// ---- compiled execution: the paper's own snippets ----

TEST(LangExec, PaperVectorAdd) {
  // "#size; c = a + b;" — Section 4's headline statement.
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array a[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
      array b[10] = {5, 5, 5, 5, 5, 5, 5, 5, 5, 5};
      array out[10];
      var size = 10;
      #size;
      out. = a. + b.;
  )",
                   &c);
  for (Word i = 0; i < 10; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), i + 5);
  }
}

TEST(LangExec, PaperThicknessPrefixedStatement) {
  // "#size/2: c.=a.+b.;" — one-way conditional as a thinner flow.
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array a[8] = {1, 1, 1, 1, 1, 1, 1, 1};
      array b[8] = {2, 2, 2, 2, 2, 2, 2, 2};
      array out[8];
      var size = 8;
      #size;
      out. = 9;
      #size/2: out. = a. + b.;
  )",
                   &c);
  for (Word i = 0; i < 4; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 3);
  }
  for (Word i = 4; i < 8; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 9);
  }
}

TEST(LangExec, PaperTwoWayParallel) {
  // parallel { #size/2: c.=a.+b.; #size/2: c.[#+id]=0; } (Section 4).
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      array b[8] = {10, 10, 10, 10, 10, 10, 10, 10};
      array out[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
      var size = 8;
      parallel {
        #size/2: out. = a. + b.;
        #size/2: out.[size/2 + id] = 0;
      }
  )",
                   &c);
  for (Word i = 0; i < 4; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 11 + i);
  }
  for (Word i = 4; i < 8; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 0);
  }
}

TEST(LangExec, PaperMultiprefix) {
  // prefix(source, MPADD, &sum, source); — the thick multioperation.
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array source[6] = {1, 2, 3, 4, 5, 6};
      array dest[6];
      cell sum = 100;
      var size = 6;
      #size;
      prefix(source, MPADD, &sum, dest);
  )",
                   &c);
  Word running = 100;
  for (Word i = 0; i < 6; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("dest").at(i)), running);
    running += i + 1;
  }
  EXPECT_EQ(m->shared().peek(c->buffer("sum").at(0)), 121);
}

TEST(LangExec, PaperDependentLoop) {
  // for (i = 1; i < size; i <<= 1) source[id] += source[id - i];
  // with the zero guard region below the array (Section 4's trick).
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array guard[16];
      array source[16] = {1, 1, 1, 1, 1, 1, 1, 1,
                          1, 1, 1, 1, 1, 1, 1, 1};
      var size = 16;
      var i;
      #size;
      for (i = 1; i < size; i <<= 1)
        source.[id] += source.[id - i];
  )",
                   &c);
  for (Word i = 0; i < 16; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("source").at(i)), i + 1)
        << "prefix sum at " << i;
  }
}

TEST(LangExec, PaperNumaBlock) {
  // "#1/T; c = a + b;" — NUMA execution of a sequential section.
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      cell acc;
      var i;
      #1/8;
      for (i = 0; i < 20; i += 1)
        acc += 3;
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("acc").at(0)), 60);
}

TEST(LangExec, IfElseFlowUniform) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      cell out;
      var x = 5;
      if (x > 3) out = 1; else out = 2;
      if (x > 9) out += 10; else out += 20;
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("out").at(0)), 21);
}

TEST(LangExec, WhileLoopAndCompound) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      cell out;
      var n = 1;
      while (n < 100) n <<= 1;
      out = n;
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("out").at(0)), 128);
}

TEST(LangExec, NestedParallel) {
  // Nested parallel{}: the outer flow splits, and one branch splits again.
  // Each leaf flow writes its own slots, so there is no cross-flow race
  // (racy read-modify-writes on a shared cell would be resolved by the
  // CRCW policy, not summed — that is what multioperations are for).
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array out[7];
      parallel {
        #2: parallel {
          #3: out.[id] = 10 + id;
        }
        #4: out.[3 + id] = 20 + id;
      }
  )",
                   &c);
  for (Word i = 0; i < 3; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 10 + i);
  }
  for (Word i = 0; i < 4; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(3 + i)), 20 + i);
  }
}

TEST(LangExec, CrossFlowAccumulationNeedsMultiop) {
  // The race the model warns about: two asynchronous flows doing
  // `count += 1` may read the same old value within one machine step. The
  // prefix/multioperation path is the correct accumulator.
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array one[4] = {1, 1, 1, 1};
      array scratch[4];
      cell count;
      #4;
      prefix(one, MPADD, &count, scratch);
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("count").at(0)), 4);
}

TEST(LangExec, ThicknessKeyword) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array t[8];
      #8;
      t. = thickness;
  )",
                   &c);
  for (Word i = 0; i < 8; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("t").at(i)), 8);
  }
}

TEST(LangExec, PrintEmitsDebugOutput) {
  auto m = run_src("var x = 6; print(x * 7);");
  EXPECT_EQ(m->debug_output(), (std::vector<Word>{42}));
}

TEST(LangExec, GeneralIndexedAssignment) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array a[8];
      #8;
      a.[7 - id] = id;
  )",
                   &c);
  for (Word i = 0; i < 8; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("a").at(i)), 7 - i);
  }
}

TEST(LangExec, CellReadsInExpressions) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      cell k = 5;
      array a[4];
      #4;
      a. = k * 2 + id;
  )",
                   &c);
  for (Word i = 0; i < 4; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("a").at(i)), 10 + i);
  }
}

// ---- the multi() combining statement ----

TEST(LangMulti, HistogramCombines) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array data[8] = {1, 2, 1, 0, 2, 2, 1, 2};
      array hist[3];
      #8;
      multi(hist.[data.[id]], MPADD, 1);
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("hist").at(0)), 1);
  EXPECT_EQ(m->shared().peek(c->buffer("hist").at(1)), 3);
  EXPECT_EQ(m->shared().peek(c->buffer("hist").at(2)), 4);
}

TEST(LangMulti, LaneIndexedShorthand) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array a[4] = {10, 20, 30, 40};
      #4;
      multi(a., MPADD, id);
  )",
                   &c);
  for (Word i = 0; i < 4; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("a").at(i)), 10 * (i + 1) + i);
  }
}

TEST(LangMulti, MaxReduction) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array data[6] = {3, 9, 4, 7, 2, 8};
      cell best;
      #6;
      multi(best.[0], MPMAX, data.[id]);
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("best").at(0)), 9);
}

TEST(LangMulti, RejectsScalarTarget) {
  EXPECT_THROW(compile_source("var x; #4; multi(x, MPADD, 1);"), SimError);
}

// ---- flow-level method calls (the paper's claimed-novel semantics) ----

TEST(LangFuncs, BasicCallAndReturn) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      cell out;
      var x = 1;
      func double_x() { x = x * 2; }
      double_x();
      double_x();
      double_x();
      out = x;
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("out").at(0)), 8);
}

TEST(LangFuncs, ThickFlowCallsMethodOnce) {
  // "When a control flow with thickness T calls a method, the method is
  // not called separately by each of the T threads, but the control flow
  // calls it only once with T threads."
  const std::string body = R"(
      array a[THICK];
      func bump() { a.[id] += 1; }
      #THICK;
      a. = 0;
      bump();
  )";
  auto count_call_ops = [&](Word thickness) {
    std::string src = body;
    while (src.find("THICK") != std::string::npos) {
      src.replace(src.find("THICK"), 5, std::to_string(thickness));
    }
    const auto compiled = compile_source(src);
    machine::Machine m(cfg4());
    m.load(compiled.program);
    m.boot(1);
    TCFPN_CHECK(m.run().completed, "no halt");
    // every lane bumped once
    for (Word i = 0; i < thickness; ++i) {
      EXPECT_EQ(m.shared().peek(compiled.buffer("a").at(i)), 1);
    }
    // fetch count is thickness-independent: CALL/RET/fetches per
    // instruction, not per implicit thread.
    return m.stats().instruction_fetches;
  };
  EXPECT_EQ(count_call_ops(2), count_call_ops(64));
}

TEST(LangFuncs, RecursionUsesTheFlowCallStack) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      cell out;
      var n = 6;
      var acc = 1;
      func fact() {
        if (n > 1) {
          acc = acc * n;
          n = n - 1;
          fact();
        }
      }
      fact();
      out = acc;
  )",
                   &c);
  EXPECT_EQ(m->shared().peek(c->buffer("out").at(0)), 720);
}

TEST(LangFuncs, FunctionWithParallelBody) {
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array out[6];
      func fill() {
        parallel {
          #3: out.[id] = 7;
          #3: out.[3 + id] = 8;
        }
      }
      fill();
  )",
                   &c);
  for (Word i = 0; i < 3; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 7);
  }
  for (Word i = 3; i < 6; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("out").at(i)), 8);
  }
}

TEST(LangFuncs, UnknownFunctionRejected) {
  EXPECT_THROW(compile_source("nope();"), SimError);
}

TEST(LangFuncs, DuplicateFunctionRejected) {
  EXPECT_THROW(compile_source("func f() { } func f() { }"), SimError);
}

TEST(LangFuncs, MethodInheritsCallersThickness) {
  // "A method can be considered to have a thickness related to the calling
  // flow's thickness."
  const Compiled* c = nullptr;
  auto m = run_src(R"(
      array t[8];
      func record() { t.[id] = thickness; }
      #8;
      record();
  )",
                   &c);
  for (Word i = 0; i < 8; ++i) {
    EXPECT_EQ(m->shared().peek(c->buffer("t").at(i)), 8);
  }
}

// ---- compile-time diagnostics ----

class CodegenErrors : public ::testing::TestWithParam<BadSrc> {};
TEST_P(CodegenErrors, Rejects) {
  EXPECT_THROW(compile_source(GetParam().src), SimError);
}
INSTANTIATE_TEST_SUITE_P(
    Cases, CodegenErrors,
    ::testing::Values(
        BadSrc{"unknown_var", "x = 1;"},
        BadSrc{"unknown_array", "a. = 1;"},
        BadSrc{"array_as_scalar", "array a[4]; cell c; c = a;"},
        BadSrc{"duplicate", "var x; cell x;"},
        BadSrc{"reserved", "var id;"},
        BadSrc{"too_many_vars",
               "var a; var b; var c; var d; var e; var f; var g; var h;"},
        BadSrc{"zero_array", "array a[0];"},
        BadSrc{"negative_array", "array a[0 - 1]; array b[4];"},
        BadSrc{"min_over_minus_one_array",
               "array a[(0 - 9223372036854775807 - 1) / (0 - 1)];"},
        BadSrc{"triple_thick_nest",
               "cell c; #2: { #3: { #4: c = 1; } }"},
        BadSrc{"layout_past_int64",
               "array a[9223372036854775807]; array b[9223372036854775807];"
               " array c[4]; #4; c.[id] = 7;"}),
    [](const auto& inf) { return std::string(inf.param.name); });

TEST(CompiledApi, BufferLookup) {
  const auto c = compile_source("array a[4]; cell s;");
  EXPECT_EQ(c.buffer("a").size, 4u);
  EXPECT_EQ(c.buffer("s").size, 1u);
  EXPECT_EQ(c.buffer("s").base, c.buffer("a").base + 4);
  EXPECT_THROW(c.buffer("nope"), SimError);
  EXPECT_EQ(c.heap_end, c.heap_base + 5);
}

// Constant sizes fold with the ISA's arithmetic: INT64_MIN % -1 is 0 (the
// host's signed remainder traps), sums wrap and >> is logical.
TEST(CompiledApi, ConstantSizesFoldLikeTheIsa) {
  const auto c = compile_source(
      "array a[(0 - 9223372036854775807 - 1) % (0 - 1) + 4];"
      "array b[9223372036854775807 + 9223372036854775807 + 3];"
      "array d[(0 - 8) >> 60];");
  EXPECT_EQ(c.buffer("a").size, 4u);
  EXPECT_EQ(c.buffer("b").size, 1u);
  EXPECT_EQ(c.buffer("d").size, 15u);
}

TEST(LangExec, RuntimeDivergenceFaults) {
  // A lane-dependent condition in flow-level `if` must fault at runtime
  // (the whole flow takes one path; use parallel{} to split).
  EXPECT_THROW(run_src(R"(
      cell out;
      array a[4] = {0, 1, 0, 1};
      #4;
      if (a. > 0) out = 1;
  )"),
               SimError);
}

}  // namespace
}  // namespace tcfpn::lang
