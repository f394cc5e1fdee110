// Host-side micro-benchmarks (google-benchmark): throughput of the
// simulator's own primitives. Not a paper artefact — this guards the
// simulator's usability for the experiment sweeps.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "machine/machine.hpp"
#include "mem/shared_memory.hpp"
#include "net/network.hpp"
#include "tcf/kernels.hpp"

using namespace tcfpn;

namespace {

void BM_SharedMemoryCommit(benchmark::State& state) {
  mem::SharedMemory m(1 << 16, 8);
  const auto writes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < writes; ++i) {
      m.write(i % (1 << 16), static_cast<Word>(i), i);
    }
    m.commit_step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(writes));
}
BENCHMARK(BM_SharedMemoryCommit)->Arg(64)->Arg(1024);

void BM_Multiprefix(benchmark::State& state) {
  mem::SharedMemory m(1 << 12, 8);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          m.multiprefix(7, mem::MultiOp::kAdd, 1, i));
    }
    m.commit_step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Multiprefix)->Arg(256);

void BM_NetworkRandomTraffic(benchmark::State& state) {
  for (auto _ : state) {
    net::Network netw(net::make_topology(net::TopologyKind::kMesh2D, 16));
    Rng rng(1);
    for (int i = 0; i < 128; ++i) {
      netw.inject(static_cast<net::NodeId>(rng.below(16)),
                  static_cast<net::NodeId>(rng.below(16)));
    }
    benchmark::DoNotOptimize(netw.drain());
  }
}
BENCHMARK(BM_NetworkRandomTraffic);

void BM_MachineVecAdd(benchmark::State& state) {
  const Word n = state.range(0);
  for (auto _ : state) {
    auto cfg = bench::default_cfg();
    machine::Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(n, 1024, 8192, 16384));
    m.boot(1);
    benchmark::DoNotOptimize(m.run().cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MachineVecAdd)->Arg(256)->Arg(4096);

// The inner lane loop of a thick ALU instruction, in both register-file
// layouts. The AoS twin strides by the 16-register frame, which defeats
// auto-vectorization; the SoA sweep over contiguous banks is what
// machine::LaneFile gives Machine::exec_lanes (configure with
// -DTCFPN_VEC_REPORT=ON to see the compiler confirm the vector loop).
void BM_LaneSweepAoS(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<machine::LaneRegs> file(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    file[l][2] = static_cast<Word>(l);
    file[l][3] = static_cast<Word>(3 * l + 1);
  }
  for (auto _ : state) {
    for (std::size_t l = 0; l < lanes; ++l) {
      file[l][4] = file[l][2] + file[l][3];
    }
    benchmark::DoNotOptimize(file.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_LaneSweepAoS)->Arg(256)->Arg(4096);

void BM_LaneSweepSoA(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  machine::LaneFile file;
  file.assign(lanes, machine::LaneRegs{});
  for (std::size_t l = 0; l < lanes; ++l) {
    file.set(l, 2, static_cast<Word>(l));
    file.set(l, 3, static_cast<Word>(3 * l + 1));
  }
  for (auto _ : state) {
    Word* dst = file.bank(4);
    const Word* a = file.bank(2);
    const Word* b = file.bank(3);
    for (std::size_t l = 0; l < lanes; ++l) {
      dst[l] = a[l] + b[l];
    }
    benchmark::DoNotOptimize(dst);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_LaneSweepSoA)->Arg(256)->Arg(4096);

void BM_MachineScanDoubling(benchmark::State& state) {
  const Word n = state.range(0);
  for (auto _ : state) {
    auto cfg = bench::default_cfg();
    machine::Machine m(cfg);
    m.load(tcf::kernels::scan_doubling_tcf(n, static_cast<Addr>(n)));
    m.boot(1);
    benchmark::DoNotOptimize(m.run().cycles);
  }
}
BENCHMARK(BM_MachineScanDoubling)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
