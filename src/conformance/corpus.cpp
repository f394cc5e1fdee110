#include "conformance/corpus.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "isa/assembler.hpp"

namespace tcfpn::conformance {

namespace {

using machine::Variant;
using mem::CrcwPolicy;

const char* policy_name(CrcwPolicy p) {
  switch (p) {
    case CrcwPolicy::kErew: return "erew";
    case CrcwPolicy::kCrew: return "crew";
    case CrcwPolicy::kCommon: return "common";
    case CrcwPolicy::kArbitrary: return "arbitrary";
    case CrcwPolicy::kPriority: return "priority";
  }
  return "?";
}

CrcwPolicy parse_policy(const std::string& s) {
  if (s == "erew") return CrcwPolicy::kErew;
  if (s == "crew") return CrcwPolicy::kCrew;
  if (s == "common") return CrcwPolicy::kCommon;
  if (s == "arbitrary") return CrcwPolicy::kArbitrary;
  if (s == "priority") return CrcwPolicy::kPriority;
  TCFPN_FAULT("corpus: unknown policy '", s, "'");
}

Variant parse_variant(const std::string& s) {
  if (s == "single-instruction") return Variant::kSingleInstruction;
  if (s == "balanced") return Variant::kBalanced;
  if (s == "multi-instruction") return Variant::kMultiInstruction;
  if (s == "single-operation") return Variant::kSingleOperation;
  if (s == "config-single-operation") return Variant::kConfigSingleOperation;
  if (s == "fixed-thickness") return Variant::kFixedThickness;
  TCFPN_FAULT("corpus: unknown variant '", s, "'");
}

/// `text` as a decimal number in [lo, hi]; anything else is a corpus error.
std::uint64_t number(const std::string& text, const std::string& what,
                     std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end || v < lo || v > hi) {
    TCFPN_FAULT("corpus: ", what, " '", text, "' is not a number in [", lo,
                ", ", hi, "]");
  }
  return v;
}

LaneSpec parse_lane(std::string tok) {
  LaneSpec lane;
  if (auto slash = tok.find('/'); slash != std::string::npos) {
    const std::string suffix = tok.substr(slash + 1);
    TCFPN_CHECK(suffix == "aligned", "corpus: unknown lane suffix '", suffix,
                "'");
    lane.aligned = true;
    tok.resize(slash);
  }
  if (auto colon = tok.find(':'); colon != std::string::npos) {
    lane.balanced_bound = static_cast<std::uint32_t>(
        number(tok.substr(colon + 1), "balanced bound", 1, UINT32_MAX));
    tok.resize(colon);
  }
  lane.variant = parse_variant(tok);
  return lane;
}

/// Value of "key=<digits>" inside a directive payload, in [lo, hi].
std::uint64_t field(const std::string& s, const std::string& key,
                    std::uint64_t lo, std::uint64_t hi) {
  const std::string needle = key + "=";
  const auto at = s.find(needle);
  TCFPN_CHECK(at != std::string::npos, "corpus: missing field '", key, "'");
  const std::size_t from = at + needle.size();
  return number(s.substr(from, s.find(' ', from) - from), key, lo, hi);
}

}  // namespace

std::string serialize_case(const DiffCase& c) {
  std::ostringstream os;
  os << "; tcffuzz corpus v1\n";
  os << "; policy: " << policy_name(c.policy) << "\n";
  os << "; boot: thickness=" << c.boot_thickness << " flows=" << c.boot_flows
     << " esm=" << (c.esm_boot ? 1 : 0) << "\n";
  os << "; expect: " << (c.expect_error ? "error" : "ok") << "\n";
  os << "; local: " << (c.uses_local ? 1 : 0) << "\n";
  os << "; lanes:";
  for (const LaneSpec& lane : c.lanes) {
    os << " " << machine::to_string(lane.variant);
    if (lane.variant == Variant::kBalanced) os << ":" << lane.balanced_bound;
    if (lane.aligned) os << "/aligned";
  }
  os << "\n";
  for (const auto& init : c.program.data) {
    os << ".data " << init.addr;
    for (Word w : init.words) os << ", " << w;
    os << "\n";
  }
  for (const isa::Instr& instr : c.program.code) {
    os << "  " << isa::disassemble(instr) << "\n";
  }
  return os.str();
}

DiffCase parse_case(const std::string& text) {
  DiffCase c;
  bool versioned = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("; ", 0) != 0) continue;
    const std::string body = line.substr(2);
    if (body == "tcffuzz corpus v1") {
      versioned = true;
    } else if (body.rfind("policy: ", 0) == 0) {
      c.policy = parse_policy(body.substr(8));
    } else if (body.rfind("boot: ", 0) == 0) {
      const std::string payload = body.substr(6);
      c.boot_thickness =
          static_cast<Word>(field(payload, "thickness", 1, INT64_MAX));
      c.boot_flows =
          static_cast<std::uint32_t>(field(payload, "flows", 1, UINT32_MAX));
      c.esm_boot = field(payload, "esm", 0, 1) != 0;
    } else if (body.rfind("expect: ", 0) == 0) {
      c.expect_error = body.substr(8) == "error";
    } else if (body.rfind("local: ", 0) == 0) {
      c.uses_local = body.substr(7) == "1";
    } else if (body.rfind("lanes:", 0) == 0) {
      std::istringstream ls(body.substr(6));
      std::string tok;
      while (ls >> tok) c.lanes.push_back(parse_lane(tok));
    }
  }
  TCFPN_CHECK(versioned, "corpus: missing '; tcffuzz corpus v1' header");
  TCFPN_CHECK(!c.lanes.empty(), "corpus: entry declares no lanes");
  c.program = isa::assemble(text);
  return c;
}

void save_case(const DiffCase& c, const std::string& path) {
  std::ofstream out(path);
  TCFPN_CHECK(out.good(), "corpus: cannot write '", path, "'");
  out << serialize_case(c);
}

DiffCase load_case(const std::string& path) {
  std::ifstream in(path);
  TCFPN_CHECK(in.good(), "corpus: cannot read '", path, "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_case(text.str());
}

std::vector<std::string> corpus_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".s") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace tcfpn::conformance
