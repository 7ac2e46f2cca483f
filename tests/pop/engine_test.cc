// Differential tests of the sharded population engine against the
// legacy single-simulation runner (the oracle): on uncoupled and
// fault-only configurations the engine must be *bit-identical* to
// `RunMultiClientSimulation`, for any shard count. Also covers the
// engine-only observability surfaces: population report extras and the
// stats-stream population fields; the round gate's invisibility across
// thread counts on a coupled run; and the shard's O(1) liveness count.

#include "pop/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/client_world.h"
#include "core/multi_client.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "pop/client_store.h"
#include "pop/pop_params.h"
#include "pop/shard.h"
#include "tests/pop/population_test_util.h"

namespace bcast::pop {
namespace {

using pop_test::MakePopulation;
using pop_test::SimulationBytes;

// Serialized report of the legacy runner.
std::string LegacyBytes(const MultiClientParams& params) {
  auto result = RunMultiClientSimulation(params);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return SimulationBytes(
      MakePopulationRunReport(params, *result, "pop_test", "test"));
}

// Serialized report of the engine at shard count `k` (forced, so k=1
// exercises the engine rather than the legacy fallback). Population
// extras are deliberately *not* appended: the oracle cannot produce
// them, and SimulationBytes already covers the engine-vs-engine case.
std::string EngineBytes(const MultiClientParams& params, uint64_t k) {
  PopParams pop;
  pop.clients = params.clients.size();
  pop.shards = k;
  pop.force_engine = true;
  auto result = RunPopulationSimulation(params, pop);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return SimulationBytes(
      MakePopulationRunReport(params, *result, "pop_test", "test"));
}

void ExpectEngineMatchesLegacy(const MultiClientParams& params) {
  const std::string legacy = LegacyBytes(params);
  for (uint64_t k : {1u, 2u, 5u}) {
    EXPECT_EQ(EngineBytes(params, k), legacy) << "shards=" << k;
  }
}

TEST(PopulationEngineTest, MatchesLegacyOnUncoupledConfig) {
  ExpectEngineMatchesLegacy(MakePopulation(6));
}

TEST(PopulationEngineTest, MatchesLegacyUnderChannelFaults) {
  MultiClientParams params = MakePopulation(6);
  params.fault.loss = 0.1;
  params.fault.burst_len = 3.0;
  params.fault.corrupt = 0.02;
  ExpectEngineMatchesLegacy(params);
}

TEST(PopulationEngineTest, MatchesLegacyUnderProcessFaults) {
  MultiClientParams params = MakePopulation(6);
  params.fault.loss = 0.05;
  params.fault.process.crash_every = 20000.0;
  params.fault.process.crash_down = 50.0;
  params.fault.process.crash_cold = true;
  params.fault.process.stall_every = 5000.0;
  params.fault.process.stall_len = 20.0;
  params.fault.process.slot_jitter = 0.3;
  ExpectEngineMatchesLegacy(params);
}

TEST(PopulationEngineTest, MatchesLegacyUnderScheduleVersionBumps) {
  MultiClientParams params = MakePopulation(6);
  params.fault.process.version_every = 20000.0;
  ExpectEngineMatchesLegacy(params);
}

TEST(PopulationEngineTest, RejectsAVersionCadenceShorterThanThePeriod) {
  // Both runners check the cadence against the built program before the
  // first event; one slot short of the period used to hang a client
  // whose pages sat late in the cycle.
  MultiClientParams params = MakePopulation(3);
  auto schedule = BuildPopulationSchedule(params, /*with_pull=*/true);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const double period = static_cast<double>(schedule->program.period());
  PopParams pop;
  pop.clients = 3;
  pop.shards = 2;
  params.fault.process.version_every = period - 1.0;
  auto legacy = RunMultiClientSimulation(params);
  auto engine = RunPopulationSimulation(params, pop);
  ASSERT_FALSE(legacy.ok());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(legacy.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  params.fault.process.version_every = period;
  EXPECT_TRUE(RunMultiClientSimulation(params).ok());
  EXPECT_TRUE(RunPopulationSimulation(params, pop).ok());
}

TEST(PopulationEngineTest, MatchesLegacyWithReceiverClasses) {
  // Class profiles scale each client's fault knobs; the legacy runner
  // reads the same stamped specs, so the runs must still agree.
  MultiClientParams params = MakePopulation(6);
  params.fault.loss = 0.1;
  const auto classes =
      *ParseClassProfiles("near:0.5:0.25:1,far:0.5:2:1");
  ApplyClassProfiles(classes, &params.clients);
  const std::string legacy = LegacyBytes(params);
  PopParams pop;
  pop.clients = params.clients.size();
  pop.classes = classes;
  pop.force_engine = true;
  for (uint64_t k : {1u, 3u}) {
    pop.shards = k;
    auto result = RunPopulationSimulation(params, pop);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SimulationBytes(MakePopulationRunReport(params, *result,
                                                      "pop_test", "test")),
              legacy)
        << "shards=" << k;
  }
}

// Finds an extra by key; -1 when absent.
double ExtraOr(const obs::RunReport& report, const std::string& key,
               double fallback) {
  for (const auto& [k, v] : report.extra) {
    if (k == key) return v;
  }
  return fallback;
}

TEST(PopulationEngineTest, RboRebuildsKeepTheBitReversalPeriod) {
  // Loss-driven frequency repair on a bit-reversal schedule: every
  // rebuild must re-seat the rbo program, not regenerate a chunked
  // multi-disk one. The controller spaces its epochs by the period on
  // the air, so with the rbo period kept the final (dead-liveness) tick
  // lands at exactly (epochs + 1) * epoch_cycles * period. Both runners
  // install the same hook, so they also agree byte for byte.
  MultiClientParams params = MakePopulation(2);
  params.optimizer = "rbo";
  params.fault.loss = 0.1;
  params.adapt.epoch_cycles = 2;
  auto schedule = BuildPopulationSchedule(params, /*with_pull=*/true);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const double epoch =
      2.0 * static_cast<double>(schedule->program.period());

  std::vector<MultiClientResult> runs;
  auto legacy = RunMultiClientSimulation(params);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  runs.push_back(*legacy);
  for (uint64_t k : {1u, 2u}) {
    PopParams pop;
    pop.clients = params.clients.size();
    pop.shards = k;
    pop.force_engine = true;
    auto engine = RunPopulationSimulation(params, pop);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    runs.push_back(*engine);
  }
  for (const MultiClientResult& run : runs) {
    EXPECT_GT(run.adapt_stats.rebuilds, 0u);
    EXPECT_EQ(run.end_time,
              static_cast<double>(run.adapt_stats.epochs + 1) * epoch);
  }
  EXPECT_EQ(EngineBytes(params, 1), EngineBytes(params, 2));
  EXPECT_EQ(LegacyBytes(params), EngineBytes(params, 1));
}

TEST(PopulationEngineTest, ReoptRunsOnAPopulationOfOne) {
  // Measured-frequency re-optimization needs one demand ranking, so one
  // client, hence one shard: its monitor is drained at epoch barriers.
  MultiClientParams params = MakePopulation(1);
  params.clients[0].offset = 60;
  params.adapt.epoch_cycles = 2;
  params.adapt.reopt = true;
  PopParams pop;
  pop.clients = 1;
  pop.shards = 2;
  pop.force_engine = true;
  auto result = RunPopulationSimulation(params, pop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->adapt_stats.reopts, 0u);
  EXPECT_GT(result->adapt_stats.demotions + result->adapt_stats.promotions,
            0u);
}

TEST(PopulationEngineTest, AppendsPopulationAndClassExtras) {
  MultiClientParams params = MakePopulation(8);
  params.fault.loss = 0.1;
  PopParams pop;
  pop.clients = 8;
  pop.shards = 2;
  pop.classes = *ParseClassProfiles("near:0.5:0.25,far:0.5:2");
  ApplyClassProfiles(pop.classes, &params.clients);
  auto result = RunPopulationSimulation(params, pop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::RunReport report =
      MakePopulationRunReport(params, *result, "pop_test", "test");
  AppendPopulationExtras(pop, *result, &report);

  EXPECT_EQ(ExtraOr(report, "pop_clients", -1.0), 8.0);
  EXPECT_EQ(ExtraOr(report, "pop_shards", -1.0), 2.0);
  EXPECT_EQ(ExtraOr(report, "pop_engine", -1.0), 1.0);
  EXPECT_EQ(ExtraOr(report, "class0_near_clients", -1.0), 4.0);
  EXPECT_EQ(ExtraOr(report, "class1_far_clients", -1.0), 4.0);
  EXPECT_GT(ExtraOr(report, "pop_max_flow_time", -1.0), 0.0);
  EXPECT_GT(ExtraOr(report, "pop_stretch_max", -1.0), 0.0);
  // The worst class p99 is the max over the per-class p99 extras.
  const double worst = ExtraOr(report, "pop_worst_class_p99", -1.0);
  EXPECT_EQ(worst, std::max(ExtraOr(report, "class0_near_rt_p99", -1.0),
                            ExtraOr(report, "class1_far_rt_p99", -1.0)));
  // A "far" class that loses 2x as often cannot beat "near" on mean
  // response time.
  EXPECT_GE(ExtraOr(report, "class1_far_mean_rt", -1.0),
            ExtraOr(report, "class0_near_mean_rt", -1.0));
}

TEST(PopulationEngineTest, StatsStreamCarriesPopulationFields) {
  MultiClientParams params = MakePopulation(6);
  PopParams pop;
  pop.clients = 6;
  pop.shards = 3;
  std::ostringstream stream;
  obs::StatsWriter writer(&stream);
  SimObservers observers;
  observers.stats = &writer;
  observers.stats_interval = 2000.0;
  auto result = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::istringstream lines(stream.str());
  std::string line;
  uint64_t samples = 0;
  obs::StatsSample last;
  while (std::getline(lines, line)) {
    auto sample = obs::ParseStatsLine(line);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString() << ": " << line;
    EXPECT_EQ(sample->pop_clients, 6u);
    EXPECT_EQ(sample->pop_shards, 3u);
    last = *sample;
    ++samples;
  }
  ASSERT_GT(samples, 1u);
  EXPECT_TRUE(last.final_sample);
  // The closing sample agrees with the run's own ledger.
  uint64_t requests = 0;
  for (const auto& m : result->per_client) requests += m.requests();
  EXPECT_EQ(last.requests, requests);
  EXPECT_EQ(last.events, result->events_dispatched);
}

TEST(PopulationEngineTest, StatsObservationDoesNotPerturbTheRun) {
  // The engine samples at barriers without scheduling DES events, so an
  // observed run reports the same simulation as an unobserved one. The
  // sole exception is `end_time`: the last surviving grid tick rounds
  // the clock up to its sample time, exactly as the legacy sampler's
  // final kStats event does (legacy additionally inflates
  // events_dispatched, which the engine does not).
  MultiClientParams params = MakePopulation(6);
  PopParams pop;
  pop.clients = 6;
  pop.shards = 2;
  auto unobserved = RunPopulationSimulation(params, pop);
  ASSERT_TRUE(unobserved.ok());
  std::ostringstream stream;
  obs::StatsWriter writer(&stream);
  SimObservers observers;
  observers.stats = &writer;
  observers.stats_interval = 1000.0;
  auto observed = RunPopulationSimulation(params, pop, observers);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(observed->events_dispatched, unobserved->events_dispatched);
  auto normalized = [&](const MultiClientResult& result) {
    obs::RunReport report =
        MakePopulationRunReport(params, result, "pop_test", "test");
    report.end_time = 0.0;
    return SimulationBytes(std::move(report));
  };
  EXPECT_EQ(normalized(*observed), normalized(*unobserved));
}

// A coupled configuration with thousands of barrier rounds: a shared
// pull server behind a lossy uplink, and the adaptive controller.
MultiClientParams CoupledPopulation(uint64_t n) {
  MultiClientParams params = MakePopulation(n);
  params.measured_requests = 300;
  params.fault.loss = 0.05;
  params.pull.pull_slots = 2;
  params.adapt.epoch_cycles = 4;
  return params;
}

TEST(PopulationEngineTest, RoundGateLeavesNoTraceInResults) {
  // K=1 runs every round on the calling thread with no worker at all;
  // K=2 hands a shard to a worker that spins before it parks; more
  // threads than the host has park at once; K at or above the client
  // count is clamped to one client per shard. The gate must be
  // invisible: same report, same round count, bit for bit.
  const uint64_t hw = std::max(1u, std::thread::hardware_concurrency());
  const uint64_t n = hw + 2;
  const MultiClientParams params = CoupledPopulation(n);
  auto run = [&params, n](uint64_t k, uint64_t* rounds) {
    PopParams pop;
    pop.clients = n;
    pop.shards = k;
    pop.force_engine = true;
    auto result = RunPopulationSimulation(params, pop);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    *rounds = result->rounds;
    obs::RunReport report =
        MakePopulationRunReport(params, *result, "pop_test", "test");
    AppendPopulationExtras(pop, *result, &report);
    EXPECT_EQ(ExtraOr(report, "pop_rounds", -1.0),
              static_cast<double>(result->rounds));
    return SimulationBytes(std::move(report));
  };
  uint64_t rounds_k1 = 0;
  const std::string k1 = run(1, &rounds_k1);
  EXPECT_GT(rounds_k1, 1000u);
  for (uint64_t k : {uint64_t{2}, hw + 1, n, n + 3}) {
    uint64_t rounds = 0;
    EXPECT_EQ(run(k, &rounds), k1) << "shards=" << k;
    EXPECT_EQ(rounds, rounds_k1) << "shards=" << k;
  }
}

TEST(PopulationEngineTest, UncoupledRunIsOneRound) {
  PopParams pop;
  pop.clients = 6;
  pop.shards = 3;
  auto result = RunPopulationSimulation(MakePopulation(6), pop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rounds, 1u);
}

TEST(ShardTest, UnfinishedCountMatchesAScanOfItsClients) {
  // The coordinator reads every shard's unfinished count after every
  // round; it is kept as clients finish, and must equal the walk over
  // the shard's clients it replaced, at every barrier.
  MultiClientParams params = MakePopulation(6);
  params.measured_requests = 50;
  auto schedule = BuildPopulationSchedule(params, /*with_pull=*/true);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  const std::vector<bool> cold_pages = ColdPages(params, schedule->program);
  ShardShared shared;
  shared.params = &params;
  shared.layout = &schedule->layout;
  shared.program = &schedule->program;
  shared.hybrid = &schedule->hybrid;
  shared.cold_pages = &cold_pages;
  ClientStore store(6, 1, {}, /*need_pull=*/false, /*need_cold=*/false);
  Shard shard(0, 0, 6, shared, &store);
  ASSERT_TRUE(shard.Build(Rng(params.seed)).ok());
  auto scan = [&shard]() {
    uint64_t n = 0;
    for (uint64_t c = shard.begin(); c < shard.end(); ++c) {
      if (!shard.world(c).client->finished()) ++n;
    }
    return n;
  };
  EXPECT_EQ(shard.unfinished(), 6u);
  bool saw_partial = false;
  for (double barrier = 100.0; shard.unfinished() > 0; barrier += 100.0) {
    ASSERT_LT(barrier, 1e7) << "shard never finished";
    shard.RunRound(barrier, /*to_completion=*/false);
    EXPECT_EQ(shard.unfinished(), scan()) << "barrier " << barrier;
    saw_partial |= shard.unfinished() > 0 && shard.unfinished() < 6;
  }
  EXPECT_TRUE(saw_partial);  // clients finish in different rounds
}

}  // namespace
}  // namespace bcast::pop
