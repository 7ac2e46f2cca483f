// Benchmark workloads: the generated configurations, one timed batch of
// each, and the output checks every batch must pass.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/multi_client.h"
#include "core/params.h"
#include "core/updates.h"
#include "des/simulation.h"

namespace perfbench {

enum class Kind { kSingle, kPopulation, kUpdates };

/// One named workload: everything the library sees is generated from the
/// benchmark seed.
struct Workload {
  std::string name;
  std::string why;  ///< one line: what the workload exercises
  Kind kind = Kind::kSingle;
  bcast::SimParams base;  ///< paper geometry plus the workload's knobs
  uint64_t clients = 1;   ///< population size (kPopulation)
  uint64_t shards = 1;    ///< engine shards of the timed batches
  bcast::UpdateParams updates;  ///< kUpdates only
  /// Seeds pooled per run. The simulated metrics of a run are taken over
  /// all of them, so a run with few measured requests per seed still
  /// reads them from enough samples.
  uint64_t subseeds = 1;
};

/// Builds workload \p name for benchmark seed \p seed; false if unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// How one batch is executed. `shards` 0 selects the legacy
/// single-threaded population runner; >0 the engine at that many shards.
struct BatchOptions {
  uint64_t subseed = 0;
  uint64_t shards = 1;
  bool profile_des = false;  ///< the library's DES dispatch profiling
  bool setup_probe = false;  ///< one measured request: times set-up only
};

/// Everything one batch produced: host timings, the simulated outcome,
/// and the counts the layer reconciliation multiplies unit costs by.
struct Batch {
  double setup_s = 0.0;  ///< program build plus world assembly
  double wall_s = 0.0;   ///< first event to result
  double cpu_s = 0.0;    ///< user + system seconds, all threads, set-up too

  /// Measured phase, all clients (single and population workloads).
  bcast::ClientMetrics metrics{3};
  uint64_t expected_requests = 0;  ///< clients x measured requests
  uint64_t measured = 0;           ///< measured requests simulated
  uint64_t hits = 0;               ///< measured requests served from cache
  double mean_bu = 0.0;            ///< mean simulated response time
  double p99_bu = 0.0;             ///< its 99th percentile
  uint64_t digest = 0;  ///< hash of every simulated statistic

  bcast::des::QueueBackend backend = bcast::des::QueueBackend::kHeap;
  double end_time = 0.0;  ///< simulated broadcast units
  uint64_t events = 0;

  /// Counts including warm-up: requests, page fetches, slot-arrival events
  /// (one NextArrival each) and histogram records. Single-client and
  /// population batches count requests and slot events only with
  /// `profile_des` (0 otherwise).
  uint64_t requests_total = 0;
  uint64_t fetches = 0;
  uint64_t slot_events = 0;
  uint64_t histogram_records = 0;

  // Updates mode.
  uint64_t stale_hits = 0;
  uint64_t refetches = 0;
  uint64_t updates_generated = 0;  ///< server updates drawn

  // Subsystems (zero when the workload bypasses them). Barrier rounds are
  // the engine's pull-slot starts and controller epochs (1 when uncoupled).
  uint64_t rounds = 0;
  bcast::fault::FaultStats faults;
  uint64_t uplink_sends = 0;
  uint64_t uplink_dropped = 0;
  uint64_t re_requests = 0;
  uint64_t first_requests = 0;
  uint64_t uplink_enqueued = 0;  ///< sends that reached the server queue
  uint64_t pull_serviced = 0;
  uint64_t pull_opportunities = 0;
  double pull_queue_depth = 0.0;  ///< mean depth at service decisions
  uint64_t adapt_epochs = 0;
  uint64_t adapt_rebuilds = 0;

  /// Output checks that failed, empty when the batch is correct.
  std::vector<std::string> failures;
};

/// Runs one batch of \p w. Fails the process on a library error (a
/// workload on which an operation fails is a broken benchmark).
Batch RunBatch(const Workload& w, const BatchOptions& options);

/// The library parameters of \p w's batches with seed index \p subseed.
bcast::SimParams BatchParams(const Workload& w, uint64_t subseed);

/// A population of \p clients built from \p p, interests spread evenly
/// over the database as bcastsim's population mode lays them out.
bcast::MultiClientParams PopulationParams(const bcast::SimParams& p,
                                          uint64_t clients);

/// Prints \p what and exits: a library call failed on a workload, which
/// makes the benchmark itself broken.
[[noreturn]] void Die(const std::string& what);

/// Median of \p values (0 for none).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
