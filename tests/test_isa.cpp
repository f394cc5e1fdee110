// Tests for the ISA: encode/decode round trips, mnemonic lookup, the
// assembler (syntax, labels, directives, diagnostics) and disassembler.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "isa/assembler.hpp"
#include "isa/instr.hpp"
#include "isa/program.hpp"

namespace tcfpn::isa {
namespace {

TEST(Instr, EncodeDecodeRoundTripAllOpcodes) {
  for (int op = 0; op < static_cast<int>(Opcode::kOpcodeCount); ++op) {
    Instr i;
    i.op = static_cast<Opcode>(op);
    i.rd = 3;
    i.ra = 7;
    i.rb = 15;
    i.flags = flag::kUseImm | flag::kLaneAddr;
    i.imm = -12345;
    EXPECT_EQ(Instr::decode(i.encode()), i);
  }
}

TEST(Instr, DecodeRejectsBadOpcode) {
  const std::uint64_t bad = std::uint64_t{0xFF} << 56;
  EXPECT_THROW(Instr::decode(bad), SimError);
}

TEST(Instr, MnemonicLookup) {
  EXPECT_EQ(opcode_from_mnemonic("ADD"), Opcode::kAdd);
  EXPECT_EQ(opcode_from_mnemonic("add"), Opcode::kAdd);
  EXPECT_EQ(opcode_from_mnemonic("SeTtHiCk"), Opcode::kSetThick);
  EXPECT_EQ(opcode_from_mnemonic("bogus"), Opcode::kOpcodeCount);
}

TEST(Instr, EveryOpcodeHasUniqueMnemonic) {
  for (int op = 0; op < static_cast<int>(Opcode::kOpcodeCount); ++op) {
    const auto oc = static_cast<Opcode>(op);
    EXPECT_EQ(opcode_from_mnemonic(op_info(oc).mnemonic), oc);
  }
}

TEST(Assembler, BasicProgram) {
  const auto p = assemble(R"(
      ; vector add body
      main:  LDI r1, 100
             LD r2, [r1+4]
             ADD r3, r2, r1
             ST r3, [r1+8+@]
             HALT
  )");
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.entry(), 0u);
  EXPECT_EQ(p.code[0].op, Opcode::kLdi);
  EXPECT_EQ(p.code[0].imm, 100);
  EXPECT_EQ(p.code[1].op, Opcode::kLd);
  EXPECT_EQ(p.code[1].ra, 1);
  EXPECT_EQ(p.code[1].imm, 4);
  EXPECT_FALSE(p.code[1].lane_addr());
  EXPECT_TRUE(p.code[3].lane_addr());
  EXPECT_EQ(p.code[3].imm, 8);
}

TEST(Assembler, ImmediateAluOperand) {
  const auto p = assemble("ADD r1, r2, 42");
  ASSERT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.code[0].use_imm());
  EXPECT_EQ(p.code[0].imm, 42);
  const auto q = assemble("ADD r1, r2, r3");
  EXPECT_FALSE(q.code[0].use_imm());
  EXPECT_EQ(q.code[0].rb, 3);
}

TEST(Assembler, LabelsResolveForwardAndBackward) {
  const auto p = assemble(R"(
      start: LDI r1, 1
             BNEZ r1, end
             JMP start
      end:   HALT
  )");
  EXPECT_EQ(p.label("start"), 0u);
  EXPECT_EQ(p.label("end"), 3u);
  EXPECT_EQ(p.code[1].imm, 3);
  EXPECT_EQ(p.code[2].imm, 0);
}

TEST(Assembler, EquConstantsAndData) {
  const auto p = assemble(R"(
      .equ BASE, 0x40
      .equ COUNT, 8
      .data BASE, 1, 2, 3
      LDI r1, BASE
      LD  r2, [r1+COUNT]
      HALT
  )");
  ASSERT_EQ(p.data.size(), 1u);
  EXPECT_EQ(p.data[0].addr, 0x40u);
  EXPECT_EQ(p.data[0].words, (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(p.code[0].imm, 0x40);
  EXPECT_EQ(p.code[1].imm, 8);
}

TEST(Assembler, NegativeAndHexImmediates) {
  const auto p = assemble("LDI r1, -5\nLDI r2, 0x1F");
  EXPECT_EQ(p.code[0].imm, -5);
  EXPECT_EQ(p.code[1].imm, 31);
}

TEST(Assembler, MemoryOperandForms) {
  const auto p = assemble(R"(
      LD r1, [r2]
      LD r1, [r2+@]
      LD r1, [r2+-4]
      MPADD r3, [r4+8]
      PPADD r5, r6, [r7+@]
  )");
  EXPECT_EQ(p.code[0].imm, 0);
  EXPECT_TRUE(p.code[1].lane_addr());
  EXPECT_EQ(p.code[2].imm, -4);
  EXPECT_EQ(p.code[3].op, Opcode::kMpAdd);
  EXPECT_EQ(p.code[3].rb, 3);
  EXPECT_EQ(p.code[4].op, Opcode::kPpAdd);
  EXPECT_EQ(p.code[4].rd, 5);
  EXPECT_EQ(p.code[4].rb, 6);
  EXPECT_TRUE(p.code[4].lane_addr());
}

TEST(Assembler, SetThickRegisterOrImmediate) {
  const auto p = assemble("SETTHICK r3\nSETTHICK 64");
  EXPECT_FALSE(p.code[0].use_imm());
  EXPECT_EQ(p.code[0].ra, 3);
  EXPECT_TRUE(p.code[1].use_imm());
  EXPECT_EQ(p.code[1].imm, 64);
}

TEST(Assembler, MainLabelSetsEntry) {
  const auto p = assemble(R"(
      helper: RET
      main:   CALL helper
              HALT
  )");
  EXPECT_EQ(p.entry(), 1u);
}

struct BadSource {
  const char* name;
  const char* src;
};

class AssemblerDiagnostics : public ::testing::TestWithParam<BadSource> {};

TEST_P(AssemblerDiagnostics, Rejects) {
  EXPECT_THROW(assemble(GetParam().src), SimError);
}

INSTANTIATE_TEST_SUITE_P(
    Errors, AssemblerDiagnostics,
    ::testing::Values(
        BadSource{"unknown_mnemonic", "FROB r1, r2"},
        BadSource{"bad_register", "LDI r99, 1"},
        BadSource{"register_past_int", "LDI r99999999999, 1"},
        BadSource{"missing_operand", "ADD r1, r2"},
        BadSource{"extra_operand", "HALT r1"},
        BadSource{"unknown_symbol", "LDI r1, NOPE"},
        BadSource{"duplicate_label", "a: NOP\na: NOP"},
        BadSource{"unbalanced_bracket", "LD r1, [r2"},
        BadSource{"bad_equ", ".equ 9bad, 1"},
        BadSource{"imm_where_reg", "LD 5, [r1]"},
        BadSource{"empty_operand", "ADD r1, , r2"}),
    [](const auto& inf) { return std::string(inf.param.name); });

TEST(Disassembler, RoundTripThroughAssembler) {
  const auto p = assemble(R"(
      main: LDI r1, 7
            ADD r2, r1, 3
            LD r3, [r1+2+@]
            MPADD r3, [r1]
            SETTHICK 16
            BNEZ r2, 0
            HALT
  )");
  for (const auto& instr : p.code) {
    const std::string text = disassemble(instr);
    const auto re = assemble(text);
    ASSERT_EQ(re.size(), 1u) << text;
    EXPECT_EQ(re.code[0], instr) << text;
  }
}

TEST(Program, ListingContainsLabelsAndCode) {
  const auto p = assemble("main: LDI r1, 7\nHALT");
  const std::string listing = p.listing();
  EXPECT_NE(listing.find("main:"), std::string::npos);
  EXPECT_NE(listing.find("LDI r1, 7"), std::string::npos);
}

TEST(Program, UnknownLabelThrows) {
  const auto p = assemble("NOP");
  EXPECT_THROW(p.label("nope"), SimError);
}

}  // namespace
}  // namespace tcfpn::isa
