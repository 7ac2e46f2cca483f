// Per-layer unit costs, timed from the benchmark's own code around calls
// into each module's public functions, and the reconciliation that
// multiplies them by a run's counts.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Unit costs of the layers under one workload, each measured at that
/// workload's geometry, policy, queue depth and DES backend.
struct UnitCosts {
  double push_pop_ns = 0.0;        ///< des: one push + pop + dispatch
  double build_schedule_ms = 0.0;  ///< broadcast: BuildSchedule
  double next_arrival_ns = 0.0;    ///< broadcast: NextArrivalStart
  double next_page_ns = 0.0;       ///< client: Zipf draw
  double mapping_build_us = 0.0;   ///< client: Mapping::Make
  double lookup_ns = 0.0;          ///< cache: Lookup at steady fill, a
                                   ///< shard's worth of instances
  double insert_ns = 0.0;          ///< cache: Insert (with eviction)
  double cache_bytes = 0.0;        ///< cache: heap bytes per filled instance
  double world_build_us = 0.0;     ///< core: BuildClientWorld per client
  double update_draw_ns = 0.0;     ///< core: one lazily drawn update
  double client_bytes = 0.0;       ///< core: heap bytes per client world
  double spsc_ns = 0.0;            ///< pop: SPSC push + pop
  /// pop: the engine's net cost per barrier round, over the legacy
  /// runner on the same batch (set by the traced run, not measured here)
  double round_us = 0.0;
  double enqueue_ns = 0.0;         ///< pull: RequestQueue::Add
  double service_ns = 0.0;         ///< pull: RequestQueue::PopNext
  double receive_ns = 0.0;         ///< fault: one reception attempt
  double rebuild_ms = 0.0;         ///< adapt: hybrid program + reseat
  double histogram_ns = 0.0;       ///< obs: LogHistogram::Add
};

/// Where the measurements are taken: the DES depth the workload ran at
/// (pending events per simulation, which is also the clients, and so the
/// cache instances, of one shard), its backend, the mean time an event
/// stays pending (Little's law over the traced batch), the mean response
/// time the histograms record, the pull queue's mean depth, and a client's
/// request spacing.
struct LayerContext {
  uint64_t depth = 1;
  uint64_t pull_depth = 1;
  bcast::des::QueueBackend backend = bcast::des::QueueBackend::kHeap;
  double mean_pending_bu = 1.0;
  double mean_response_bu = 1.0;
  /// Simulated time between one client's requests (response + think).
  double request_gap_bu = 1.0;
};

/// Times every layer's unit cost for \p w in \p ctx.
UnitCosts MeasureUnitCosts(const Workload& w, const LayerContext& ctx);

/// One term of the reconciliation: a layer, its count in the run, the
/// seconds that count costs at the layer's unit price, and whether the work
/// is serial (the engine's coordinator, or a barrier every shard waits
/// out) or split evenly across the shard threads.
struct Term {
  std::string layer;
  double count = 0.0;
  double seconds = 0.0;
  bool serial = false;
};

/// The layer terms of \p traced (counts) priced at \p costs.
std::vector<Term> Reconcile(const UnitCosts& costs, const Batch& traced);

/// Wall seconds \p t explains on a run over \p threads shard threads.
inline double WallSeconds(const Term& t, uint64_t threads) {
  return t.serial ? t.seconds : t.seconds / static_cast<double>(threads);
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
