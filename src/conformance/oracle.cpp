#include "conformance/oracle.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "common/check.hpp"
#include "isa/instr.hpp"

namespace tcfpn::conformance {

namespace {

using isa::Opcode;
using mem::CrcwPolicy;
using mem::MultiOp;

constexpr std::size_t kNoFlow = ~std::size_t{0};

using Regs = std::array<Word, isa::kNumRegisters>;

enum class Status : std::uint8_t { kReady, kWaitingJoin, kHalted };

struct OFlow {
  std::size_t id = 0;
  std::size_t parent = kNoFlow;
  std::size_t pc = 0;
  bool numa = false;
  std::uint32_t numa_block = 1;
  Word thickness = 1;
  Status status = Status::kReady;
  std::uint32_t live_children = 0;
  std::vector<Regs> regs;
  std::vector<std::size_t> call_stack;
  // Store forwarding, exactly as machine/flow.hpp: a flow sees its own
  // writes from instructions *completed* this step; lanes of one
  // instruction never observe each other.
  std::unordered_map<Addr, Word> step_writes;
  std::unordered_map<Addr, Word> instr_writes;
  bool multiop_blocked = false;
};

// Priority key, identical to the machine's lane_key().
std::uint64_t okey(std::size_t flow, LaneId lane) {
  return (static_cast<std::uint64_t>(flow) << 40) | lane;
}

struct OWrite {
  Addr addr;
  std::uint64_t key;
  Word value;
};

struct OMulti {
  Addr addr;
  std::uint64_t key;
  MultiOp op;
  Word value;
  std::size_t flow;
  LaneId lane;
  std::uint8_t rd;
  bool want_result;
};

struct OSpawn {
  std::size_t parent;
  std::size_t entry;
  Word thickness;
  Regs broadcast;
};

class Oracle {
 public:
  Oracle(const isa::Program& program, const OracleOptions& opt)
      : program_(program), opt_(opt), shared_(opt.shared_words, 0),
        local_(opt.local_words, 0) {
    for (const auto& init : program_.data) {
      for (std::size_t i = 0; i < init.words.size(); ++i) {
        check_shared(init.addr + i);
        shared_[init.addr + i] = init.words[i];
      }
    }
  }

  void boot(Word thickness, std::uint32_t flows, bool esm) {
    if (esm) {
      for (std::uint32_t t = 0; t < flows; ++t) {
        OFlow f;
        f.id = flows_.size();
        f.pc = program_.entry();
        f.thickness = 1;
        f.regs.assign(1, Regs{});
        f.regs[0][1] = t;
        f.regs[0][2] = flows;
        flows_.push_back(std::move(f));
      }
      return;
    }
    OFlow f;
    f.id = 0;
    f.pc = program_.entry();
    f.thickness = thickness;
    f.regs.assign(static_cast<std::size_t>(thickness), Regs{});
    flows_.push_back(std::move(f));
  }

  OracleResult run() {
    OracleResult r;
    try {
      while (steps_ < opt_.max_steps && step()) {
      }
      r.completed = std::all_of(flows_.begin(), flows_.end(), [](const OFlow& f) {
        return f.status == Status::kHalted;
      });
    } catch (const SimError& e) {
      r.faulted = true;
      r.fault = e.what();
    }
    r.shared = shared_;
    r.local = local_;
    r.debug = debug_;
    r.steps = steps_;
    return r;
  }

 private:
  bool step() {
    bool any_ready = false;
    for (const OFlow& f : flows_) {
      any_ready |= f.status == Status::kReady;
    }
    if (!any_ready) return false;

    // One TCF instruction (or NUMA block) per ready flow, in flow-id order.
    const std::size_t booted = flows_.size();  // children join the next step
    for (std::size_t i = 0; i < booted; ++i) {
      OFlow& f = flows_[i];
      if (f.status != Status::kReady) continue;
      if (f.numa) {
        run_numa_block(f);
      } else {
        run_instruction(f);
      }
    }

    commit();

    // Step-boundary housekeeping, mirroring Machine::finish_step.
    for (OFlow& f : flows_) {
      f.step_writes.clear();
      f.multiop_blocked = false;
    }
    for (std::size_t id : halted_this_step_) {
      const std::size_t parent = flows_[id].parent;
      if (parent == kNoFlow) continue;
      TCFPN_CHECK(flows_[parent].live_children > 0,
                  "oracle: child halt underflows parent counter");
      --flows_[parent].live_children;
    }
    halted_this_step_.clear();
    for (OFlow& f : flows_) {
      if (f.status == Status::kWaitingJoin && f.live_children == 0) {
        f.status = Status::kReady;
      }
    }
    for (const OSpawn& sp : spawns_) {
      OFlow child;
      child.id = flows_.size();
      child.parent = sp.parent;
      child.pc = sp.entry;
      child.thickness = sp.thickness;
      child.regs.assign(static_cast<std::size_t>(sp.thickness), sp.broadcast);
      flows_.push_back(std::move(child));
    }
    spawns_.clear();
    ++steps_;
    return true;
  }

  const isa::Instr& fetch(const OFlow& f) const {
    if (f.pc >= program_.code.size()) {
      TCFPN_FAULT("flow ", f.id, " ran off the end of the program (pc=", f.pc,
                  ")");
    }
    return program_.code[f.pc];
  }

  void run_instruction(OFlow& f) {
    const isa::Instr& instr = fetch(f);
    const isa::OpInfo& info = isa::op_info(instr.op);
    if (info.is_control || instr.op == Opcode::kPrint) {
      if (exec_control(f, instr)) complete_instruction(f);
      return;
    }
    for (LaneId lane = 0; lane < static_cast<LaneId>(f.thickness); ++lane) {
      exec_lane(f, instr, lane);
    }
    complete_instruction(f);
    ++f.pc;
  }

  void run_numa_block(OFlow& f) {
    // Mirror Machine::run_numa_block: up to numa_block instructions per
    // step, stopping at a multioperation or a flow-state change; NUMASET 0
    // mid-block keeps consuming the block's remaining budget in PRAM mode
    // (thickness is 1 by then either way).
    std::uint32_t executed = 0;
    while (executed < f.numa_block && f.status == Status::kReady &&
           !f.multiop_blocked) {
      const isa::Instr& instr = fetch(f);
      const isa::OpInfo& info = isa::op_info(instr.op);
      ++executed;
      if (info.is_control || instr.op == Opcode::kPrint) {
        if (!exec_control(f, instr)) break;
        complete_instruction(f);
      } else {
        exec_lane(f, instr, 0);
        complete_instruction(f);
        ++f.pc;
      }
    }
  }

  void complete_instruction(OFlow& f) {
    for (const auto& [a, v] : f.instr_writes) f.step_writes[a] = v;
    f.instr_writes.clear();
  }

  void check_shared(Addr a) const {
    if (a >= shared_.size()) {
      TCFPN_FAULT("shared memory access out of range: addr ", a, " >= ",
                  shared_.size());
    }
  }

  void check_local(Addr a) const {
    if (a >= local_.size()) {
      TCFPN_FAULT("local memory (group 0) access out of range: ", a, " >= ",
                  local_.size());
    }
  }

  Addr effective_addr(const OFlow& f, const isa::Instr& instr,
                      LaneId lane) const {
    const Word base = instr.ra == 0 ? 0 : f.regs[lane][instr.ra];
    // Unsigned arithmetic: the sum may wrap (base near INT64_MAX), which
    // would be undefined in Word; the wrapped value faults as negative.
    std::uint64_t sum = static_cast<std::uint64_t>(base) +
                        static_cast<std::uint64_t>(instr.imm);
    if (instr.lane_addr()) sum += lane;
    const Word ea = static_cast<Word>(sum);
    if (ea < 0) {
      TCFPN_FAULT("negative effective address ", ea, " in flow ", f.id);
    }
    return static_cast<Addr>(ea);
  }

  Word alu(const isa::Instr& instr, Word a, Word b) const {
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    switch (instr.op) {
      case Opcode::kAdd: return static_cast<Word>(ua + ub);
      case Opcode::kSub: return static_cast<Word>(ua - ub);
      case Opcode::kMul: return static_cast<Word>(ua * ub);
      // INT64_MIN / -1 overflows: the quotient wraps to INT64_MIN and the
      // remainder is 0.
      case Opcode::kDiv:
        if (b == 0) TCFPN_FAULT("division by zero");
        return b == -1 ? static_cast<Word>(0 - ua) : a / b;
      case Opcode::kMod:
        if (b == 0) TCFPN_FAULT("modulo by zero");
        return b == -1 ? 0 : a % b;
      case Opcode::kAnd: return a & b;
      case Opcode::kOr: return a | b;
      case Opcode::kXor: return a ^ b;
      case Opcode::kShl: return static_cast<Word>(ua << (ub & 63));
      case Opcode::kShr: return static_cast<Word>(ua >> (ub & 63));
      case Opcode::kSlt: return a < b ? 1 : 0;
      case Opcode::kSle: return a <= b ? 1 : 0;
      case Opcode::kSeq: return a == b ? 1 : 0;
      case Opcode::kSne: return a != b ? 1 : 0;
      case Opcode::kMax: return std::max(a, b);
      case Opcode::kMin: return std::min(a, b);
      default:
        TCFPN_FAULT("oracle alu() called with non-ALU opcode");
    }
  }

  Word read_shared(OFlow& f, Addr a, LaneId lane) {
    if (auto it = f.step_writes.find(a); it != f.step_writes.end()) {
      // Forwarded from the flow's own committed-this-step writes; exclusive
      // by construction, so it leaves no EREW footprint (same as machine).
      return it->second;
    }
    check_shared(a);
    if (opt_.policy == CrcwPolicy::kErew) {
      reads_.emplace_back(a, okey(f.id, lane));
    }
    return shared_[a];
  }

  void exec_lane(OFlow& f, const isa::Instr& instr, LaneId lane) {
    auto& regs = f.regs[lane];
    auto write_reg = [&](std::uint8_t r, Word v) {
      if (r != 0) regs[r] = v;
    };
    const std::uint64_t key = okey(f.id, lane);
    switch (instr.op) {
      case Opcode::kLdi:
        write_reg(instr.rd, instr.imm);
        return;
      case Opcode::kLd: {
        const Addr a = effective_addr(f, instr, lane);
        write_reg(instr.rd, read_shared(f, a, lane));
        return;
      }
      case Opcode::kSt: {
        const Addr a = effective_addr(f, instr, lane);
        check_shared(a);
        const Word v = instr.rb == 0 ? 0 : regs[instr.rb];
        writes_.push_back(OWrite{a, key, v});
        f.instr_writes[a] = v;
        return;
      }
      case Opcode::kLld: {
        const Addr a = effective_addr(f, instr, lane);
        check_local(a);
        write_reg(instr.rd, local_[a]);
        return;
      }
      case Opcode::kLst: {
        const Addr a = effective_addr(f, instr, lane);
        check_local(a);
        local_[a] = instr.rb == 0 ? 0 : regs[instr.rb];
        return;
      }
      case Opcode::kMpAdd:
      case Opcode::kMpMax:
      case Opcode::kMpMin:
      case Opcode::kMpAnd:
      case Opcode::kMpOr: {
        const Addr a = effective_addr(f, instr, lane);
        check_shared(a);
        const auto op = static_cast<MultiOp>(static_cast<int>(instr.op) -
                                             static_cast<int>(Opcode::kMpAdd));
        multis_.push_back(OMulti{a, key, op,
                                 instr.rb == 0 ? 0 : regs[instr.rb], f.id,
                                 lane, 0, false});
        f.multiop_blocked = true;
        return;
      }
      case Opcode::kPpAdd:
      case Opcode::kPpMax:
      case Opcode::kPpMin:
      case Opcode::kPpAnd:
      case Opcode::kPpOr: {
        const Addr a = effective_addr(f, instr, lane);
        check_shared(a);
        const auto op = static_cast<MultiOp>(static_cast<int>(instr.op) -
                                             static_cast<int>(Opcode::kPpAdd));
        multis_.push_back(OMulti{a, key, op,
                                 instr.rb == 0 ? 0 : regs[instr.rb], f.id,
                                 lane, instr.rd, true});
        f.multiop_blocked = true;
        return;
      }
      case Opcode::kTid:
        write_reg(instr.rd, static_cast<Word>(lane));
        return;
      case Opcode::kFid:
        write_reg(instr.rd, static_cast<Word>(f.id));
        return;
      case Opcode::kThick:
        write_reg(instr.rd, f.numa ? 1 : f.thickness);
        return;
      case Opcode::kGid:
        write_reg(instr.rd, 0);  // the oracle has no groups
        return;
      case Opcode::kNop:
        return;
      default: {
        const Word a = instr.ra == 0 ? 0 : regs[instr.ra];
        const Word b = instr.use_imm()
                           ? instr.imm
                           : (instr.rb == 0 ? 0 : regs[instr.rb]);
        write_reg(instr.rd, alu(instr, a, b));
        return;
      }
    }
  }

  // Returns false when the flow left the ready state.
  bool exec_control(OFlow& f, const isa::Instr& instr) {
    auto target = [&](std::int32_t imm) {
      if (imm < 0 || static_cast<std::size_t>(imm) > program_.code.size()) {
        TCFPN_FAULT("branch target ", imm, " out of range in flow ", f.id);
      }
      return static_cast<std::size_t>(imm);
    };
    switch (instr.op) {
      case Opcode::kJmp:
        f.pc = target(instr.imm);
        return true;
      case Opcode::kBeqz:
      case Opcode::kBnez: {
        const Word head = instr.ra == 0 ? 0 : f.regs[0][instr.ra];
        if (!f.numa) {
          for (const auto& regs : f.regs) {
            const Word v = instr.ra == 0 ? 0 : regs[instr.ra];
            if ((v == 0) != (head == 0)) {
              TCFPN_FAULT("divergent branch condition in flow ", f.id,
                          ": use parallel{} to split the flow");
            }
          }
        }
        const bool taken =
            instr.op == Opcode::kBeqz ? (head == 0) : (head != 0);
        f.pc = taken ? target(instr.imm) : f.pc + 1;
        return true;
      }
      case Opcode::kCall:
        f.call_stack.push_back(f.pc + 1);
        f.pc = target(instr.imm);
        return true;
      case Opcode::kRet:
        if (f.call_stack.empty()) {
          TCFPN_FAULT("RET with empty call stack in flow ", f.id);
        }
        f.pc = f.call_stack.back();
        f.call_stack.pop_back();
        return true;
      case Opcode::kHalt:
        f.status = Status::kHalted;
        halted_this_step_.push_back(f.id);
        return false;
      case Opcode::kSetThick: {
        const Word t = instr.use_imm()
                           ? instr.imm
                           : (instr.ra == 0 ? 0 : f.regs[0][instr.ra]);
        if (t < 0) TCFPN_FAULT("negative thickness ", t, " in flow ", f.id);
        if (t == 0) {
          f.status = Status::kHalted;
          halted_this_step_.push_back(f.id);
          return false;
        }
        const Regs old = f.regs.empty() ? Regs{} : f.regs[0];
        f.regs.resize(static_cast<std::size_t>(t), old);
        f.thickness = t;
        f.numa = false;
        f.pc += 1;
        return true;
      }
      case Opcode::kNumaSet: {
        const auto l = instr.imm;
        if (l < 0) TCFPN_FAULT("negative NUMA block length ", l);
        if (l == 0) {
          f.numa = false;
          f.pc += 1;
          return true;
        }
        f.numa = true;
        f.numa_block = static_cast<std::uint32_t>(l);
        f.thickness = 1;
        f.regs.resize(1);
        f.pc += 1;
        return true;
      }
      case Opcode::kSpawn: {
        const Word t = instr.ra == 0 ? 0 : f.regs[0][instr.ra];
        if (t < 0) TCFPN_FAULT("negative spawn thickness ", t);
        if (t > 0) {
          ++f.live_children;
          spawns_.push_back(OSpawn{f.id, target(instr.imm), t, f.regs[0]});
        }
        f.pc += 1;
        return true;
      }
      case Opcode::kJoinAll:
        f.pc += 1;
        if (f.live_children > 0) {
          f.status = Status::kWaitingJoin;
          return false;
        }
        return true;
      case Opcode::kPrint: {
        const Word v = instr.use_imm()
                           ? instr.imm
                           : (instr.ra == 0 ? 0 : f.regs[0][instr.ra]);
        debug_.push_back(v);
        f.pc += 1;
        return true;
      }
      default:
        TCFPN_FAULT("oracle exec_control() called with non-control opcode");
    }
  }

  void commit() {
    commit_writes();
    commit_multis();
    reads_.clear();
  }

  void commit_writes() {
    if (writes_.empty()) {
      check_erew_reads();
      return;
    }
    std::stable_sort(writes_.begin(), writes_.end(),
                     [](const OWrite& x, const OWrite& y) {
                       return x.addr != y.addr ? x.addr < y.addr
                                               : x.key < y.key;
                     });
    // Collapse same-key runs to the last (program-order) value: one lane
    // rewriting a cell within a step is sequential, not concurrent.
    std::size_t out = 0;
    for (std::size_t i = 0; i < writes_.size(); ++i) {
      if (out > 0 && writes_[out - 1].addr == writes_[i].addr &&
          writes_[out - 1].key == writes_[i].key) {
        writes_[out - 1].value = writes_[i].value;
      } else {
        writes_[out++] = writes_[i];
      }
    }
    writes_.resize(out);
    for (std::size_t i = 0; i < writes_.size();) {
      std::size_t j = i + 1;
      while (j < writes_.size() && writes_[j].addr == writes_[i].addr) ++j;
      const std::size_t writers = j - i;
      const Addr addr = writes_[i].addr;
      if (writers > 1) {
        switch (opt_.policy) {
          case CrcwPolicy::kErew:
          case CrcwPolicy::kCrew:
            TCFPN_FAULT(mem::to_string(opt_.policy), " violation: ", writers,
                        " concurrent writes to address ", addr, " in step ",
                        steps_);
          case CrcwPolicy::kCommon:
            if (!opt_.skip_common_check) {
              for (std::size_t k = i + 1; k < j; ++k) {
                if (writes_[k].value != writes_[i].value) {
                  TCFPN_FAULT(
                      "Common-CRCW violation: unequal concurrent writes "
                      "to address ", addr, " in step ", steps_, " (",
                      writes_[i].value, " vs ", writes_[k].value, ")");
                }
              }
            }
            break;
          case CrcwPolicy::kArbitrary:
          case CrcwPolicy::kPriority:
            break;  // lowest key wins
        }
      }
      shared_[addr] = writes_[i].value;
      i = j;
    }
    check_erew_reads();
    writes_.clear();
  }

  void check_erew_reads() {
    if (opt_.policy != CrcwPolicy::kErew || reads_.empty()) return;
    std::sort(reads_.begin(), reads_.end());
    reads_.erase(std::unique(reads_.begin(), reads_.end()), reads_.end());
    for (std::size_t r = 1; r < reads_.size(); ++r) {
      if (reads_[r].first == reads_[r - 1].first) {
        TCFPN_FAULT("EREW violation: concurrent reads of address ",
                    reads_[r].first, " in step ", steps_);
      }
    }
    // reads_ now has at most one key per address; a write by a *different*
    // key to a read address is a concurrent access.
    for (const OWrite& w : writes_) {
      const auto it = std::lower_bound(
          reads_.begin(), reads_.end(), w.addr,
          [](const auto& lhs, Addr rhs) { return lhs.first < rhs; });
      if (it != reads_.end() && it->first == w.addr && it->second != w.key) {
        TCFPN_FAULT("EREW violation: address ", w.addr,
                    " both read and written in step ", steps_);
      }
    }
  }

  void commit_multis() {
    if (multis_.empty()) return;
    const bool rev = opt_.reverse_prefix_order;
    std::stable_sort(multis_.begin(), multis_.end(),
                     [rev](const OMulti& x, const OMulti& y) {
                       if (x.addr != y.addr) return x.addr < y.addr;
                       return rev ? x.key > y.key : x.key < y.key;
                     });
    for (std::size_t i = 0; i < multis_.size();) {
      std::size_t j = i + 1;
      while (j < multis_.size() && multis_[j].addr == multis_[i].addr) ++j;
      const Addr addr = multis_[i].addr;
      const MultiOp op = multis_[i].op;
      Word running = shared_[addr];
      for (std::size_t k = i; k < j; ++k) {
        if (multis_[k].op != op) {
          TCFPN_FAULT("mixed multioperations (", mem::to_string(op), " vs ",
                      mem::to_string(multis_[k].op), ") on address ", addr,
                      " in step ", steps_);
        }
        if (multis_[k].want_result) {
          OFlow& f = flows_[multis_[k].flow];
          if (multis_[k].rd != 0 && multis_[k].lane < f.regs.size()) {
            f.regs[multis_[k].lane][multis_[k].rd] = running;
          }
        }
        running = mem::apply_multiop(op, running, multis_[k].value);
      }
      shared_[addr] = running;
      i = j;
    }
    multis_.clear();
  }

  const isa::Program& program_;
  const OracleOptions& opt_;
  std::vector<Word> shared_;
  std::vector<Word> local_;
  std::vector<Word> debug_;
  std::vector<OFlow> flows_;
  std::vector<OWrite> writes_;
  std::vector<OMulti> multis_;
  std::vector<std::pair<Addr, std::uint64_t>> reads_;
  std::vector<OSpawn> spawns_;
  std::vector<std::size_t> halted_this_step_;
  std::uint64_t steps_ = 0;
};

}  // namespace

OracleResult run_oracle(const isa::Program& program, Word boot_thickness,
                        std::uint32_t boot_flows, bool esm_boot,
                        const OracleOptions& opt) {
  Oracle o(program, opt);
  o.boot(boot_thickness, boot_flows, esm_boot);
  return o.run();
}

}  // namespace tcfpn::conformance
