/// \file multi_client.h
/// \brief Simulating a heterogeneous client population on one broadcast.
///
/// Section 3 of the paper: "tuning the performance of the broadcast is a
/// zero-sum game; improving the broadcast for any one access probability
/// distribution will hurt the performance of clients with different access
/// distributions." The single-client simulator models this indirectly with
/// Noise; this module models it directly: any number of clients, each with
/// its own access distribution, cache and policy, all listening to the
/// same channel (a broadcast never contends, so clients interact only
/// through how well the program fits each of them).
///
/// Client heterogeneity is expressed with `interest_shift`: client c's
/// hottest logical page corresponds to physical page `interest_shift`, so
/// populations with spread-out shifts want different parts of the database
/// hot. A server program (physical page 0 = hottest by the *server's*
/// ranking) can then favor some clients over others.

#ifndef BCAST_CORE_MULTI_CLIENT_H_
#define BCAST_CORE_MULTI_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adapt/adapt_params.h"
#include "adapt/adapt_stats.h"
#include "core/metrics.h"
#include "core/params.h"
#include "core/simulator.h"
#include "des/simulation.h"
#include "fault/fault_params.h"
#include "fault/recovery.h"
#include "obs/run_report.h"
#include "obs/stopwatch.h"
#include "pull/pull_params.h"
#include "pull/pull_stats.h"

namespace bcast {

/// \brief One client of the population.
struct ClientSpec {
  /// Pages this client ever requests (its own logical numbering).
  uint64_t access_range = 1000;

  /// Zipf skew and region size of its access distribution.
  double theta = 0.95;
  uint64_t region_size = 50;

  /// Where in the physical database this client's interest centers:
  /// its hottest logical page maps to physical `interest_shift` (before
  /// offset/noise). 0 = perfectly aligned with the server's ranking.
  uint64_t interest_shift = 0;

  /// Per-client Offset (hot pages pushed to the slow-disk tail) and Noise.
  uint64_t offset = 0;
  double noise_percent = 0.0;
  NoiseScope noise_scope = NoiseScope::kAccessRange;
  NoiseModel::Destination noise_destination =
      NoiseModel::Destination::kUniformDisk;

  /// Cache and policy.
  uint64_t cache_size = 500;
  PolicyKind policy = PolicyKind::kLix;
  PolicyOptions policy_options;

  /// Think-time model.
  double think_time = 2.0;
  ThinkTimeKind think_kind = ThinkTimeKind::kFixed;

  /// Whether the client knows the broadcast schedule (tuning metric
  /// only; see ClientRunConfig::knows_schedule).
  bool knows_schedule = false;

  /// Receiver-class scaling of the population-shared fault knobs: this
  /// client's channel/uplink loss probabilities are `fault.loss *
  /// loss_scale` (clamped to [0, 1]) and its doze duty cycle stretches
  /// by `doze_scale` (doze_for *= doze_scale; 0 disables dozing). The
  /// defaults leave the shared knobs untouched, so homogeneous
  /// populations are bit-identical to the pre-class behavior. "Near"
  /// receivers set scales < 1, "far" ones > 1 (paper §5's receiver
  /// heterogeneity).
  double loss_scale = 1.0;
  double doze_scale = 1.0;

  /// Receiver-class index this spec was expanded from (reporting only;
  /// 0 = the default class).
  uint32_t class_id = 0;
};

/// \brief The population-shared fault knobs specialized to one client's
/// receiver class (identity when both scales are 1).
fault::FaultParams ScaledFaultParams(const fault::FaultParams& base,
                                     const ClientSpec& spec);

struct MultiClientParams;

/// \brief The access distribution the server designs for: the mean of
/// every client's nominal (unshifted) distribution, hottest-first and
/// non-increasing. Interest shifts, offsets and noise are deliberately
/// ignored — the server schedules for its advertised ordering, and
/// per-client misalignment is exactly what the population experiments
/// measure. This is what the non-default optimizers consume.
std::vector<double> PopulationNominalProbs(const MultiClientParams& params);

/// \brief Population-level experiment parameters.
struct MultiClientParams {
  /// Server side: disks, frequencies, program kind — as in SimParams.
  std::vector<uint64_t> disk_sizes = {500, 2000, 2500};
  uint64_t delta = 2;
  std::vector<uint64_t> rel_freqs;  ///< overrides delta when non-empty
  ProgramKind program_kind = ProgramKind::kMultiDisk;

  /// Schedule optimizer building the multi-disk program (registry name;
  /// see broadcast/schedule_optimizer.h). Non-default optimizers derive
  /// their frequencies from the population's mean nominal access
  /// distribution, so they require the multi-disk program and empty
  /// `rel_freqs`; `rbo` additionally excludes pull (no chunked minor
  /// cycles to interleave into).
  std::string optimizer = "delta";

  /// The clients. Must be non-empty.
  std::vector<ClientSpec> clients;

  /// Requests measured per client after its warm-up.
  uint64_t measured_requests = 50000;

  /// Warm-up request cap per client.
  uint64_t max_warmup_requests = 2000000;

  /// Master seed; client c draws from independent sub-streams.
  uint64_t seed = 42;

  /// Pending-event-set backend of the DES kernel (never semantic; see
  /// SimParams::des_queue).
  des::QueueBackend des_queue = des::DefaultQueueBackend();

  /// Unreliable-channel knobs, shared by the population; each client
  /// gets its own receiver with (client id, purpose)-keyed fault
  /// streams. Inactive by default.
  fault::FaultParams fault;

  /// Hybrid push–pull knobs, shared by the population: one pull server
  /// (backchannel + request queue) serves every client, and each client
  /// gets its own requester with a (client id, kUplink)-keyed loss
  /// stream. Inactive by default; active pull requires the multi-disk
  /// program.
  pull::PullParams pull;

  /// Adaptive control-plane knobs, shared by the population: one epoch
  /// controller steers the program (and the shared pull server) from the
  /// aggregate loss and queue measurements of every client. Inactive by
  /// default; same activation requirements as SimParams.
  adapt::AdaptParams adapt;

  /// Total pages broadcast.
  uint64_t ServerDbSize() const;

  /// Structural validation.
  Status Validate() const;
};

/// \brief The population of \p clients identical clients a `SimParams`
/// template describes: the server side (disks, program, optimizer,
/// faults, pull, adaptation, run control) copied over, every client knob
/// (workload, mapping offset and noise, cache and policy, think time,
/// schedule knowledge) stamped into each spec, and client c's interest
/// shifted to physical page `DBSize * c / clients` — spread evenly, so
/// client 0 is the template's own client. `clients == 1` is exactly the
/// single-client run.
MultiClientParams PopulationFromSimParams(const SimParams& base,
                                          uint64_t clients);

/// \brief Builds the schedule \p params' server puts on the air — the
/// one schedule construction every runner shares. For the multi-disk
/// program the configured `ScheduleOptimizer` ("delta", "ksy", "rbo")
/// designs layout and program together (non-delta optimizers against
/// `PopulationNominalProbs`); the skewed and random study programs
/// bypass the optimizer and carry the Delta-rule (or explicit-frequency)
/// layout. With \p with_pull and active pull params the program is the
/// hybrid one — pull slots interleaved into every minor cycle — and
/// `hybrid` holds its layout. Does not validate \p params.
Result<ServerSchedule> BuildPopulationSchedule(const MultiClientParams& params,
                                               bool with_pull);

/// \brief Rejects a schedule-version cadence shorter than the period of
/// \p program (the built program on the air): every bump restarts the
/// cycle, so pages seated after slot `version_every` would never air and
/// their waiters would wait forever. InvalidArgument; OK when version
/// bumps are off. Every runner checks it before its first event.
Status CheckVersionCadence(const MultiClientParams& params,
                           const BroadcastProgram& program);

/// \brief The adaptive controller's push-only rebuild generator for
/// \p optimizer (`adapt::Controller::Hooks::make_program`). Empty for
/// delta and ksy, whose layouts carry integer relative frequencies, so
/// the controller's default `GenerateMultiDiskProgram` applies. A
/// bit-reversal schedule has no chunked minor cycles, so for rbo every
/// rebuild re-seats a copy of \p seat_program (the run's initial
/// program; the geometry never changes mid-run). \p seat_program must
/// outlive the controller.
std::function<Result<BroadcastProgram>(const DiskLayout&)> RebuildProgramFor(
    const std::string& optimizer, const BroadcastProgram* seat_program);

/// \brief Per-population results.
struct MultiClientResult {
  /// Per-client metrics, in `clients` order.
  std::vector<ClientMetrics> per_client;

  /// Requests the clients spent warming their caches, summed.
  uint64_t warmup_requests = 0;

  /// Logical pages whose mapping Noise moved, summed over the clients.
  uint64_t perturbed_pages = 0;

  /// Period and empty slots of the initial program on the air.
  uint64_t period = 0;
  uint64_t empty_slots = 0;

  /// Mean response time of each client (convenience).
  std::vector<double> mean_response_times;

  /// Statistics over the per-client means: the population's fairness
  /// picture (max/min spread, etc.).
  RunningStat response_across_clients;

  /// All clients' metrics merged (histograms, hits, per-disk counts) —
  /// the population-wide distributional view.
  ClientMetrics aggregate{1};

  /// Simulated end time.
  double end_time = 0.0;

  /// Wall-clock breakdown (warmup/measured are not separable per client
  /// in a concurrent population; the event loop lands in
  /// measured_seconds).
  obs::PhaseTimings timings;

  /// Events the DES kernel dispatched.
  uint64_t events_dispatched = 0;

  /// Barrier rounds the population engine ran, the final drain included:
  /// deterministic, and the same for every shard count. 0 on the
  /// in-simulation runner, which has no rounds.
  uint64_t rounds = 0;

  /// Expected delay the optimizer predicted for its program under the
  /// population's mean nominal distribution (0 for `delta`, which skips
  /// the prediction to keep its historical build path byte-for-byte).
  double predicted_delay = 0.0;

  /// Pending-event-set backend the run actually used (`auto` resolved
  /// against the population size).
  des::QueueBackend resolved_queue = des::QueueBackend::kHeap;

  /// Channel-fault accounting merged over all clients; populated (and
  /// `faults_active` set) only when `params.fault.Active()`.
  fault::FaultStats faults;
  bool faults_active = false;

  /// Hybrid push–pull accounting, accumulated on the shared server by
  /// the whole population; populated (and `pull_active` set) only when
  /// `params.pull.Active()`.
  pull::PullStats pull_stats;
  bool pull_active = false;

  /// Adaptive-controller accounting; populated (and `adapt_active` set)
  /// only when `params.adapt.Active()`.
  adapt::AdaptStats adapt_stats;
  bool adapt_active = false;

  /// Population-wide measured requests (and hits) against the pinned
  /// cold-page set; populated when pull or adaptation is active.
  uint64_t cold_requests = 0;
  uint64_t cold_hits = 0;

  /// Per-event-kind DES dispatch profile; populated (and
  /// `profile_active` set) only when `SimObservers::profile_des` was on.
  des::DesProfile profile;
  bool profile_active = false;
};

namespace internal {

/// \brief The RNG sub-stream keys a client world draws its request
/// stream and mapping noise from.
struct ClientStreamKeys {
  /// Whether client c draws under `master.Split(1000 + c)` — population
  /// runs, where adding a client never disturbs another's randomness —
  /// or straight from the master.
  bool per_client;
  uint64_t request;
  uint64_t noise;
};

/// Population runs: (client c, purpose)-keyed streams.
inline constexpr ClientStreamKeys kPopulationStreams{true, 1001, 1002};

/// The single-client run: the master's own request and noise streams,
/// which every single-mode golden (and the analytic model) is keyed by.
inline constexpr ClientStreamKeys kSingleClientStreams{
    false, kRequestStream, kNoiseStream};

/// \brief The in-simulation population runner: one DES, one channel, one
/// server-side fault plane, pull server and controller, and every
/// client's world on them. `RunMultiClientSimulation` calls it with
/// `kPopulationStreams`; `RunSimulation` runs a population of one with
/// `kSingleClientStreams`.
Result<MultiClientResult> RunInSimPopulation(const MultiClientParams& params,
                                             const SimObservers& observers,
                                             const ClientStreamKeys& streams);

}  // namespace internal

/// \brief Runs the population against one shared broadcast.
/// Deterministic in `params.seed`. Trace records carry each issuer's
/// client index; timeline spans land on per-client tracks; the stats
/// stream samples population-wide totals. Only the stats sampler adds
/// DES events — every other observer leaves the run bit-identical.
Result<MultiClientResult> RunMultiClientSimulation(
    const MultiClientParams& params, const SimObservers& observers = {});

/// \brief Renders a population run as a run report (mode "population"):
/// aggregate counts and distributions plus per-population fairness
/// extras, and the channel-fault extras when faults were active.
/// \p config is the one-line configuration identity (callers driving the
/// population from a SimParams template pass `base.ToString()`).
obs::RunReport MakePopulationRunReport(const MultiClientParams& params,
                                       const MultiClientResult& result,
                                       const std::string& config,
                                       const std::string& tool);

}  // namespace bcast

#endif  // BCAST_CORE_MULTI_CLIENT_H_
