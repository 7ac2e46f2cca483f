// The consolidated simulation configuration: defaults finalize cleanly,
// the flag-coherence rules reject meaningless combinations with their
// exact messages, string enums parse (and reject) correctly, and the
// result always passes SimParams::Validate.

#include "core/sim_config.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bcast {
namespace {

// Helper: register, parse a command line, and finalize in one step.
Status ConfigureFrom(SimConfig* config, std::vector<const char*> args) {
  FlagSet flags("test");
  config->RegisterFlags(&flags);
  Status parsed =
      flags.Parse(static_cast<int>(args.size()), args.data());
  if (!parsed.ok()) return parsed;
  return config->Finalize(&flags);
}

TEST(SimConfigTest, DefaultsFinalizeToThePaperConfiguration) {
  SimConfig config;
  ASSERT_TRUE(config.Finalize(nullptr).ok());
  EXPECT_EQ(config.params.disk_sizes,
            (std::vector<uint64_t>{500, 2000, 2500}));
  EXPECT_EQ(config.params.program_kind, ProgramKind::kMultiDisk);
  EXPECT_EQ(config.params.policy, PolicyKind::kLru);
  EXPECT_EQ(config.params.noise_scope, NoiseScope::kAccessRange);
  EXPECT_EQ(config.params.pull.scheduler, pull::PullScheduler::kFcfs);
  EXPECT_FALSE(config.params.adapt.Active());
}

TEST(SimConfigTest, ProgrammaticFinalizeSkipsSetnessRules) {
  // Without a parsed command line there is no "was set" information;
  // only structural validation applies.
  SimConfig config;
  config.params.fault.burst_len = 4.0;  // alone: fine programmatically
  EXPECT_TRUE(config.Finalize(nullptr).ok());
}

TEST(SimConfigTest, ParsedFlagsFlowIntoParams) {
  SimConfig config;
  const Status st = ConfigureFrom(
      &config, {"--disks=50,200,250", "--access_range=500",
                "--policy=pix", "--cache_size=100", "--loss=0.1",
                "--adapt_epoch=4", "--adapt_promote=2"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(config.params.disk_sizes,
            (std::vector<uint64_t>{50, 200, 250}));
  EXPECT_EQ(config.params.access_range, 500u);
  EXPECT_EQ(config.params.policy, PolicyKind::kPix);
  EXPECT_EQ(config.params.cache_size, 100u);
  EXPECT_DOUBLE_EQ(config.params.fault.loss, 0.1);
  EXPECT_EQ(config.params.adapt.epoch_cycles, 4u);
  EXPECT_EQ(config.params.adapt.max_promote, 2u);
}

TEST(SimConfigTest, BurstLenNeedsLoss) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--burst_len=4"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(
                "--burst_len shapes the loss process; it needs --loss"),
            std::string::npos);
}

TEST(SimConfigTest, DozeAwakeNeedsDoze) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--doze_awake=10"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("it needs --doze"), std::string::npos);
}

TEST(SimConfigTest, UplinkCapNeedsPull) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--uplink_cap=2"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(
      st.message().find("it needs --pull_slots (or --pull_force)"),
      std::string::npos);
}

TEST(SimConfigTest, AdaptEpochNeedsASignal) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--adapt_epoch=4"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--adapt_epoch adapts to measured loss, "
                              "pull load, or measured demand"),
            std::string::npos);
  // Any of the signal flags satisfies it.
  for (const char* signal :
       {"--loss=0.1", "--corrupt=0.1", "--doze=5", "--pull_slots=2",
        "--pull_force"}) {
    SimConfig ok_config;
    EXPECT_TRUE(
        ConfigureFrom(&ok_config, {"--adapt_epoch=4", signal}).ok())
        << signal;
  }
}

TEST(SimConfigTest, ControllerKnobsNeedTheController) {
  for (const char* knob :
       {"--adapt_promote=2", "--adapt_queue_high=3",
        "--adapt_idle_low=0.1", "--adapt_idle_high=0.9",
        "--adapt_hysteresis=3", "--adapt_min_slots=1",
        "--adapt_max_slots=4"}) {
    SimConfig config;
    const Status st = ConfigureFrom(&config, {knob});
    ASSERT_FALSE(st.ok()) << knob;
    EXPECT_NE(st.message().find(
                  " tunes the epoch controller; it needs --adapt_epoch"),
              std::string::npos)
        << knob;
  }
}

TEST(SimConfigTest, RejectsUnknownEnumStrings) {
  {
    SimConfig config;
    const Status st = ConfigureFrom(&config, {"--program=banana"});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("unknown --program: banana"),
              std::string::npos);
  }
  {
    SimConfig config;
    const Status st = ConfigureFrom(&config, {"--noise_scope=some"});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("unknown --noise_scope"),
              std::string::npos);
  }
  {
    SimConfig config;
    EXPECT_FALSE(ConfigureFrom(&config, {"--policy=banana"}).ok());
  }
  {
    SimConfig config;
    EXPECT_FALSE(ConfigureFrom(&config, {"--pull_sched=banana"}).ok());
  }
  {
    SimConfig config;
    EXPECT_FALSE(ConfigureFrom(&config, {"--disks=1,x"}).ok());
  }
}

TEST(SimConfigTest, OptimizerFlagFlowsIntoParams) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--optimizer=ksy"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(config.params.optimizer, "ksy");
}

TEST(SimConfigTest, UnknownOptimizerRejected) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--optimizer=annealing"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown optimizer: annealing"),
            std::string::npos);
}

TEST(SimConfigTest, NonDeltaOptimizerNeedsTheMultiDiskProgram) {
  SimConfig config;
  const Status st =
      ConfigureFrom(&config, {"--optimizer=rbo", "--program=skewed"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--program=multidisk"), std::string::npos);
}

TEST(SimConfigTest, RboRejectsPull) {
  SimConfig config;
  const Status st =
      ConfigureFrom(&config, {"--optimizer=rbo", "--pull_slots=2"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bit-reversal"), std::string::npos);
}

TEST(SimConfigTest, AdaptReoptIsAnAdaptSignal) {
  // Re-optimization is itself a signal: no fault or pull flag needed.
  SimConfig config;
  const Status st =
      ConfigureFrom(&config, {"--adapt_epoch=4", "--adapt_reopt"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(config.params.adapt.reopt);
  EXPECT_EQ(config.params.adapt.epoch_cycles, 4u);
}

TEST(SimConfigTest, AdaptReoptNeedsTheController) {
  SimConfig config;
  const Status st = ConfigureFrom(&config, {"--adapt_reopt"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(
                " tunes the epoch controller; it needs --adapt_epoch"),
            std::string::npos);
}

TEST(SimConfigTest, DesQueueParsesEveryBackend) {
  {
    SimConfig config;
    ASSERT_TRUE(ConfigureFrom(&config, {"--des_queue=auto"}).ok());
    EXPECT_EQ(config.params.des_queue, des::QueueBackend::kAuto);
  }
  {
    SimConfig config;
    ASSERT_TRUE(ConfigureFrom(&config, {"--des_queue=heap"}).ok());
    EXPECT_EQ(config.params.des_queue, des::QueueBackend::kHeap);
  }
  {
    SimConfig config;
    const Status st = ConfigureFrom(&config, {"--des_queue=splay"});
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("(heap|calendar|auto)"),
              std::string::npos);
  }
}

TEST(SimConfigTest, FinalizeRunsStructuralValidation) {
  // Coherent flags can still describe an invalid simulation; Finalize
  // must catch that too (here: adaptation without a multi-disk program).
  SimConfig config;
  EXPECT_FALSE(ConfigureFrom(&config, {"--program=skewed",
                                       "--adapt_epoch=4", "--loss=0.1"})
                   .ok());
}

TEST(SimConfigTest, UpdatesModeRejectsObservabilityFlags) {
  // The tool-level observability flags bcastsim registers next to the
  // simulation surface.
  for (const char* arg : {"--trace_out=t.jsonl", "--trace_timeline=t.json",
                          "--stats_out=s.jsonl", "--profile_des"}) {
    SCOPED_TRACE(arg);
    FlagSet flags("test");
    std::string trace_out, trace_timeline, stats_out;
    bool profile_des = false;
    flags.AddString("trace_out", &trace_out, "");
    flags.AddString("trace_timeline", &trace_timeline, "");
    flags.AddString("stats_out", &stats_out, "");
    flags.AddBool("profile_des", &profile_des, "");
    std::vector<const char*> args = {arg};
    ASSERT_TRUE(flags.Parse(1, args.data()).ok());
    const Status st = CheckModeFlags("updates", flags);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("--mode=updates"), std::string::npos);
    EXPECT_TRUE(CheckModeFlags("single", flags).ok());
    EXPECT_TRUE(CheckModeFlags("population", flags).ok());
  }
  FlagSet none("test");
  EXPECT_TRUE(CheckModeFlags("updates", none).ok());
}

}  // namespace
}  // namespace bcast
