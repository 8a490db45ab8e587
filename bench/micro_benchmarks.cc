// google-benchmark microbenchmarks for the library's hot paths: the MVA
// solvers, the full model fixed point, the lock manager, the WAL, Yao's
// formula, and the DES kernel.

#include <benchmark/benchmark.h>

#include "carat/testbed.h"
#include "lock/lock_manager.h"
#include "model/solver.h"
#include "model/transition.h"
#include "model/yao.h"
#include "qn/mva.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "wal/log.h"
#include "workload/spec.h"

namespace {

using namespace carat;

qn::ClosedNetwork MakeNetwork(int chains, int population) {
  qn::ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", qn::CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", qn::CenterKind::kQueueing);
  const std::size_t dly = net.AddCenter("dly", qn::CenterKind::kDelay);
  for (int k = 0; k < chains; ++k) {
    const std::size_t c =
        net.AddChain("k" + std::to_string(k), population, 5.0);
    net.chains[c].demands[cpu] = 1.0 + 0.3 * k;
    net.chains[c].demands[disk] = 2.0 + 0.1 * k;
    net.chains[c].demands[dly] = 4.0;
  }
  return net;
}

void BM_ExactMva(benchmark::State& state) {
  const qn::ClosedNetwork net =
      MakeNetwork(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qn::ExactMva(net));
  }
}
BENCHMARK(BM_ExactMva)->Arg(2)->Arg(4)->Arg(6);

void BM_SchweitzerMva(benchmark::State& state) {
  const qn::ClosedNetwork net =
      MakeNetwork(static_cast<int>(state.range(0)), 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qn::SchweitzerMva(net));
  }
}
BENCHMARK(BM_SchweitzerMva)->Arg(4)->Arg(8)->Arg(16);

void BM_ModelSolve(benchmark::State& state) {
  const model::ModelInput input =
      workload::MakeMB8(static_cast<int>(state.range(0))).ToModelInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::CaratModel(input).Solve());
  }
}
BENCHMARK(BM_ModelSolve)->Arg(4)->Arg(12)->Arg(20);

void BM_VisitCounts(benchmark::State& state) {
  model::TransitionInputs in;
  in.local_requests = 10;
  in.remote_requests = 5;
  in.io_per_request = 4.0;
  in.pb = 0.05;
  in.pd = 0.01;
  in.pra = 0.01;
  const model::TransitionMatrix p = model::BuildLocalOrCoordinatorMatrix(in);
  model::VisitCounts v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::SolveVisitCounts(p, &v));
  }
}
BENCHMARK(BM_VisitCounts);

void BM_Yao(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::YaoExpectedBlocks(18000, 3000, state.range(0)));
  }
}
BENCHMARK(BM_Yao)->Arg(16)->Arg(80);

sim::Process AcquireRelease(lock::LockManager& lm, sim::SitePort sim,
                            lock::TxnId txn, std::size_t granules) {
  for (std::size_t g = 0; g < granules; ++g) {
    co_await lock::AcquireAwaiter{lm, sim, txn, static_cast<db::GranuleId>(g),
                                  lock::LockMode::kExclusive};
  }
  lm.ReleaseAll(txn);
}

void BM_LockAcquireRelease(benchmark::State& state) {
  const std::size_t granules = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    lock::LockManager lm(lock::AcquireAwaiter::Resume);
    lm.StartTxn(1, sim.now());
    AcquireRelease(lm, sim, 1, granules);
    sim.RunUntil(1.0);
    lm.EndTxn(1);
    benchmark::DoNotOptimize(lm.requests());
  }
  state.SetItemsProcessed(state.iterations() * granules);
}
BENCHMARK(BM_LockAcquireRelease)->Arg(16)->Arg(128);

void BM_WalJournalAndRollback(benchmark::State& state) {
  const int updates = static_cast<int>(state.range(0));
  db::Database d(3000, 6);
  for (auto _ : state) {
    wal::Log log;
    for (int i = 0; i < updates; ++i) {
      log.LogBeforeImage(1, i, d.ReadGranule(i));
      d.Write(i * 6, 1);
    }
    benchmark::DoNotOptimize(log.Rollback(1, &d));
  }
  state.SetItemsProcessed(state.iterations() * updates);
}
BENCHMARK(BM_WalJournalAndRollback)->Arg(16)->Arg(64);

void BM_SimKernelEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = 10000;
    std::function<void()> tick = [&]() {
      if (--remaining > 0) sim.Schedule(1.0, tick);
    };
    sim.Schedule(0.0, tick);
    sim.RunUntil(1e9);
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimKernelEventThroughput);

void BM_TestbedSecondOfSimTime(benchmark::State& state) {
  const model::ModelInput input = workload::MakeMB4(8).ToModelInput();
  for (auto _ : state) {
    TestbedOptions opts;
    opts.warmup_ms = 0;
    opts.measure_ms = 1'000;
    benchmark::DoNotOptimize(RunTestbed(input, opts));
  }
}
BENCHMARK(BM_TestbedSecondOfSimTime);

}  // namespace

BENCHMARK_MAIN();
