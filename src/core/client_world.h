/// \file client_world.h
/// \brief Shared per-client assembly and bookkeeping for every run.
///
/// Every client-server run is a population: the single-client run
/// (`RunSimulation`) is a population of one on the in-simulation runner,
/// `RunMultiClientSimulation` runs N clients in that same simulation,
/// and the sharded population engine (`src/pop/`) spreads them over
/// worker threads. All of them build exactly the same per-client
/// machinery — mapping, access generator, catalog, cache, receiver, pull
/// requester, client — from the same keyed randomness, and fold the same
/// per-client outcomes. Keeping that code in one place is what makes
/// the engine's K=1 bit-identity to the in-simulation runner a
/// structural property instead of a convention: every caller runs this
/// code, and only the injection points below (which simulation, which
/// channel, how pull requests travel, where cold-wait latencies land,
/// which stream keys) differ.

#ifndef BCAST_CORE_CLIENT_WORLD_H_
#define BCAST_CORE_CLIENT_WORLD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "broadcast/channel.h"
#include "client/client.h"
#include "core/multi_client.h"
#include "des/simulation.h"
#include "fault/fault_model.h"
#include "fault/recovery.h"
#include "obs/stats_stream.h"
#include "obs/timeline.h"
#include "pull/hybrid.h"
#include "pull/pull_client.h"

namespace bcast {

namespace adapt {
class AccessMonitor;
class LossMonitor;
}  // namespace adapt

/// \brief One client's private machinery, in index-stable storage so the
/// spawned coroutine can reference it.
struct ClientWorld {
  std::unique_ptr<Mapping> mapping;
  std::unique_ptr<AccessGenerator> gen;
  std::unique_ptr<SimCatalog> catalog;
  std::unique_ptr<CachePolicy> cache;
  std::unique_ptr<fault::Receiver> receiver;  // null when faults are off
  std::unique_ptr<pull::PullClient> pull;     // null when pull is off
  std::unique_ptr<Client> client;
};

/// \brief The run-level context a client world is assembled against.
/// All pointers unowned; null members disable the matching feature.
struct ClientWorldDeps {
  des::Simulation* sim = nullptr;            ///< required
  BroadcastChannel* channel = nullptr;       ///< required
  const DiskLayout* layout = nullptr;        ///< required
  const BroadcastProgram* program = nullptr; ///< required (initial program)
  const pull::HybridLayout* hybrid = nullptr;  ///< null: no hybrid layout
  obs::TimelineWriter* timeline = nullptr;
  obs::TraceSink* trace = nullptr;
  adapt::LossMonitor* loss_monitor = nullptr;
  adapt::AccessMonitor* access_monitor = nullptr;  ///< --adapt_reopt demand
  fault::ServerFaultPlane* server_faults = nullptr;
  const std::vector<bool>* cold_pages = nullptr;  // null/empty: no cold set
  uint64_t* finished_count = nullptr;  ///< bumped as each client finishes

  /// Which RNG sub-streams the client draws from (population keys unless
  /// the run is the single-client one).
  internal::ClientStreamKeys streams = internal::kPopulationStreams;

  /// Builds client \p c's pull requester from its scaled fault knobs;
  /// null when pull is off. The legacy path returns a server-attached
  /// requester; the engine returns a transport-attached one.
  std::function<std::unique_ptr<pull::PullClient>(
      size_t c, const fault::FaultParams& scaled)>
      make_pull;

  /// Where client \p c's measured cold-set miss waits land; null for
  /// none. The legacy path aims every client at the controller's shared
  /// histogram; the engine gives each client its own (merged in client
  /// order at the end, so the fold order is canonical).
  std::function<obs::LogHistogram*(size_t c)> cold_wait_for;
};

/// \brief Assembles client \p c of \p params into \p out: identical
/// randomness, identical construction order, identical attachment
/// wiring on every path that calls it. \p master is the population's
/// master RNG; `deps.streams` picks the sub-streams.
Status BuildClientWorld(const MultiClientParams& params, size_t c,
                        const Rng& master, const ClientWorldDeps& deps,
                        ClientWorld* out);

/// \brief The cold-page set pinned to the initial \p program: the
/// slowest-disk class whose fate the adaptive gates (and the pull
/// ablations) track across runs, by physical page. Empty unless pull or
/// adaptation is active on a program with more than one disk.
std::vector<bool> ColdPages(const MultiClientParams& params,
                            const BroadcastProgram& program);

/// \brief Folds a finished client's outcome into \p result: its metrics,
/// mean response time, warm-up and noise counts, receiver accounting,
/// cold-set counts. Call in ascending client order.
void AddClientOutcome(const ClientWorld& world, MultiClientResult* result);

/// \brief Adds \p world's running totals to the stats sample \p s
/// (requests, hits, warm-up, per-disk service, receiver losses) and its
/// response-time sum to \p rt_sum.
void AddToStatsSample(const ClientWorld& world, obs::StatsSample* s,
                      double* rt_sum);

/// \brief Derives the mean and the window fields of \p s from its
/// totals, \p rt_sum and the previous sample \p prev (whose
/// response-time sum was \p prev_rt_sum).
void FinishStatsSample(const obs::StatsSample& prev, double prev_rt_sum,
                       double rt_sum, obs::StatsSample* s);

}  // namespace bcast

#endif  // BCAST_CORE_CLIENT_WORLD_H_
