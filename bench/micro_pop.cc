// Microbenchmarks: the sharded population engine — end-to-end rounds at
// several shard counts (the scaling knob), population size scaling at a
// fixed shard count, and the SPSC uplink queue the shards talk through.
//
// The population benches are ratio-style: compare shard counts within
// one run (or one machine) rather than reading absolute wall-clock as
// truth — a single-core container serializes the workers, so Arg(8) vs
// Arg(1) measures engine overhead there, not parallel speedup. Items
// processed is the client count, so `items_per_second` reads as
// simulated clients per wall second.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/multi_client.h"
#include "pop/engine.h"
#include "pop/pop_params.h"
#include "pop/spsc_queue.h"

namespace bcast {
namespace {

// A push-only uncoupled population over a small {100, 200} geometry: no
// pull server, no controller, so shards run one barrier-free round and
// the bench isolates the engine's per-client cost (world setup, DES
// round, merge).
MultiClientParams MakeBenchPopulation(uint64_t clients) {
  SimParams base;
  base.disk_sizes = {100, 200};
  base.delta = 2;
  base.measured_requests = 3;
  base.seed = 42;
  base.access_range = 150;
  base.region_size = 10;
  base.cache_size = 8;
  base.policy = PolicyKind::kLix;
  return PopulationFromSimParams(base, clients);
}

void RunPopulation(benchmark::State& state, uint64_t clients,
                   uint64_t shards) {
  const MultiClientParams params = MakeBenchPopulation(clients);
  pop::PopParams pop;
  pop.clients = clients;
  pop.shards = shards;
  pop.force_engine = true;
  for (auto _ : state) {
    auto result = pop::RunPopulationSimulation(params, pop);
    if (!result.ok()) {
      state.SkipWithError("population run failed");
      return;
    }
    benchmark::DoNotOptimize(result->events_dispatched);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(clients));
}

void BM_PopulationShards(benchmark::State& state) {
  RunPopulation(state, 10000, static_cast<uint64_t>(state.range(0)));
}
BENCHMARK(BM_PopulationShards)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PopulationScale(benchmark::State& state) {
  RunPopulation(state, static_cast<uint64_t>(state.range(0)), 4);
}
BENCHMARK(BM_PopulationScale)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Single-threaded ring push/pop steady state: the uplink fast path.
void BM_SpscPushPop(benchmark::State& state) {
  pop::SpscQueue<uint64_t> q(1024);
  uint64_t i = 0;
  uint64_t out = 0;
  for (auto _ : state) {
    q.Push(i++);
    benchmark::DoNotOptimize(q.TryPop(&out));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SpscPushPop);

// The barrier-drain shape: a round's worth of submits pushed, then the
// coordinator drains them all. Arg is the batch per round; sized both
// under and over the ring so the spill path is measured too.
void BM_SpscBarrierDrain(benchmark::State& state) {
  const uint64_t batch = static_cast<uint64_t>(state.range(0));
  pop::SpscQueue<uint64_t> q(1024);
  uint64_t out = 0;
  for (auto _ : state) {
    for (uint64_t i = 0; i < batch; ++i) q.Push(i);
    while (q.TryPop(&out)) benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_SpscBarrierDrain)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace bcast
