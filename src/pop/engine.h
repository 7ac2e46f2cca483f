/// \file engine.h
/// \brief The sharded population engine: N clients over K threads.
///
/// Every run is a population. Single mode is a population of one on the
/// in-simulation runner (`RunSimulation` → `internal::RunInSimPopulation`).
/// The engine builds the same client worlds (`BuildClientWorld`) on the
/// same schedule (`BuildPopulationSchedule`), spread over shards.
///
/// The engine partitions the population into contiguous shards, each a
/// private discrete-event simulation (see shard.h), and couples them to
/// one coordinator-owned *server simulation* holding the subsystems the
/// paper centralizes: the pull server (uplink admission, request queue,
/// service decisions) and the adaptive controller. Shards and server
/// synchronize only at *round barriers* — the coupling times where
/// information can cross the air or the backchannel:
///
///   - every pull-slot start (a service decision may transmit),
///   - every controller epoch boundary (the program may switch),
///   - every stats-stream sample point.
///
/// A round: (1) shards run `[t, B]` in parallel, queuing uplink submits
/// into their SPSC queues; (2) the coordinator drains all queues, sorts
/// the submits by (time, client id), and replays them against the real
/// pull server — admission, the per-client uplink loss draw, enqueue —
/// in that canonical order; (3) the server simulation runs to `B`,
/// firing decisions/epoch ticks, and every pull transmission fans out
/// as a delivery *mirror* into each shard's next round; (4) repeat.
/// Configurations with no pull, no adaptation, and no stats stream have
/// no coupling at all: the engine runs one round to completion, shards
/// fully parallel.
///
/// The round gate: the coordinator runs shard 0 itself and K-1 worker
/// threads run the rest, so K shards use K threads and K=1 starts none.
/// A round is published and retired through two 32-bit atomic words
/// (round number, pending workers) whose release/acquire pairs also
/// publish the shard mailboxes and shard state, so shard internals need
/// no atomics. A waiter spins briefly (20 µs, yielding every 64
/// `pause`s) and then parks on the word (`std::atomic::wait`); when K
/// exceeds the host's hardware threads it parks at once. A coupled run
/// makes one round per pull slot (~12k for 25 clients × 20 requests on
/// the paper geometry), so the per-round cost matters: on a 4-vCPU
/// host a mutex-and-condvar gate cost 10–18 µs a round, this one 1.2 µs.
///
/// Determinism contract:
///   - Results are **shard-count invariant**: any K produces the same
///     `MultiClientResult` (and report) bit for bit. Per-client state is
///     keyed by client id, merges fold in ascending client order, and
///     the replay order above does not mention shards.
///   - On *uncoupled* configurations the engine is additionally
///     **bit-identical to `RunMultiClientSimulation`** (golden-proven):
///     the same client worlds run the same events, and the merged
///     event count reconstructs the single-sim count exactly.
///   - On coupled configurations the engine is its own (deterministic,
///     K-invariant) reference: barrier replay resolves equal-timestamp
///     races by (time, client id) where the single simulation resolves
///     them by event sequence number, so e.g. a timeout re-request
///     landing exactly on a decision slot may order differently than
///     legacy. `--shards=1` without `force_engine` therefore routes
///     through the legacy path, which stays the compatibility anchor.
///   - Stats-stream samples are taken at barriers by the coordinator
///     and add **no** DES events (the legacy sampler adds kStats
///     events), so `events_dispatched` of a stats-observed engine run
///     matches the unobserved run, not the legacy stats-observed one.

#ifndef BCAST_POP_ENGINE_H_
#define BCAST_POP_ENGINE_H_

#include "core/multi_client.h"
#include "core/simulator.h"
#include "obs/run_report.h"
#include "pop/pop_params.h"

namespace bcast::pop {

/// \brief Runs \p params.clients (already expanded to the population,
/// with any class profiles applied to the specs) across
/// \p pop.EffectiveShards() threads, the calling thread included.
/// Deterministic in `params.seed`; invariant in the shard count.
/// InvalidArgument, before the first event, for a `version_every`
/// shorter than the program's period (`CheckVersionCadence`).
Result<MultiClientResult> RunPopulationSimulation(
    const MultiClientParams& params, const PopParams& pop,
    const SimObservers& observers = {});

/// \brief Appends population-engine extras to a population report:
/// engine identity (`pop_clients`, `pop_shards`, `pop_engine`), the
/// barrier rounds run (`pop_rounds`, the same for every shard count),
/// population fairness (`pop_max_flow_time` — the largest total measured
/// wait any client accumulated; `pop_stretch_max` — worst per-class mean
/// response time over the population mean; `pop_worst_class_p99`), and
/// one block per receiver class (count, mean/p50/p90/p99/max response
/// time, stretch).
void AppendPopulationExtras(const PopParams& pop,
                            const MultiClientResult& result,
                            obs::RunReport* report);

}  // namespace bcast::pop

#endif  // BCAST_POP_ENGINE_H_
