/// \file shard.h
/// \brief One worker shard of the population engine.
///
/// A shard owns a private `des::Simulation` plus replicas of everything
/// a client touches on the data path: a `BroadcastChannel` over the
/// shared program, a `fault::ServerFaultPlane` (seeded identically in
/// every shard, and deterministic under any query order, so replicas
/// agree bit-for-bit), a `ShardPullHub` standing in for the pull
/// server's air side, and a private `adapt::LossMonitor` its receivers
/// report into without synchronization. The shard's client range is a
/// contiguous block of ids, each built by the shared
/// `BuildClientWorld` assembly from the same (client id, purpose)-keyed
/// randomness as the single-threaded path.
///
/// The engine drives a shard in *rounds*: the coordinator writes the
/// round's mailbox (pending program switch, pending pull-delivery
/// mirrors) between rounds, then the shard's thread applies the mailbox
/// and runs its simulation to the round barrier. All cross-shard
/// coupling happens at barriers; within a round the shard shares
/// nothing mutable with anyone. The engine's round gate (engine.cc)
/// orders every mailbox write before the round that reads it and every
/// shard write before the coordinator's next look, so shard state needs
/// no atomics.

#ifndef BCAST_POP_SHARD_H_
#define BCAST_POP_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adapt/access_monitor.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "broadcast/disk_config.h"
#include "broadcast/program.h"
#include "common/rng.h"
#include "core/client_world.h"
#include "core/multi_client.h"
#include "des/simulation.h"
#include "fault/process_faults.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pop/client_store.h"
#include "pop/pull_hub.h"
#include "pull/hybrid.h"

namespace bcast::pop {

/// \brief Run-level context shared (read-only) by every shard.
struct ShardShared {
  const MultiClientParams* params = nullptr;
  const DiskLayout* layout = nullptr;
  const BroadcastProgram* program = nullptr;      ///< initial program
  const pull::HybridLayout* hybrid = nullptr;     ///< initial hybrid layout
  const std::vector<bool>* cold_pages = nullptr;  ///< may be empty
  obs::TimelineWriter* timeline = nullptr;  ///< mutexed; may be null
  obs::TraceSink* trace = nullptr;          ///< mutexed; may be null
  bool pull_enabled = false;        ///< program carries pull capacity
  double service_interval = 0.0;    ///< initial pull service interval
  bool need_loss_monitor = false;   ///< adaptation + faults are on
  bool need_cold_wait = false;      ///< adaptation is on
  adapt::AccessMonitor* access_monitor = nullptr;  ///< --adapt_reopt
  bool profile_des = false;
};

/// \brief One shard: clients [begin, end) of the population.
class Shard {
 public:
  Shard(uint64_t index, uint64_t begin, uint64_t end,
        const ShardShared& shared, ClientStore* store);

  /// Builds and spawns this shard's client worlds (identical randomness
  /// and construction order to the legacy path), arms the shard-local
  /// schedule-version tick chain. Call once, before the first round.
  Status Build(const Rng& master);

  /// \name Round mailbox — coordinator-side, only between rounds (the
  /// gate's release/acquire round word publishes the writes).
  /// @{

  /// The coordinator's pull server transmits \p page in the slot ending
  /// at \p end (strictly after the round barrier that produced it);
  /// mirror the delivery into this shard's waiter table next round.
  void QueueMirror(PageId page, double end);

  /// The adaptive controller switched to \p program at time \p at (a
  /// round barrier); \p service_interval is the new layout's mean pull
  /// spacing. Applied at the top of the next round.
  void QueueSwitch(const BroadcastProgram* program, double service_interval,
                   double at);
  /// @}

  /// Shard-thread side: applies the mailbox, then runs the shard simulation —
  /// to \p barrier, or to event-queue exhaustion when \p to_completion.
  void RunRound(double barrier, bool to_completion);

  /// Clients of this shard that have not finished their runs: O(1),
  /// from a count each client bumps as it finishes (on the worker).
  uint64_t unfinished() const { return worlds_.size() - finished_; }

  uint64_t index() const { return index_; }
  uint64_t begin() const { return begin_; }
  uint64_t end() const { return end_; }

  des::Simulation& sim() { return sim_; }
  const des::Simulation& sim() const { return sim_; }

  /// The world of global client \p c (must be owned by this shard).
  ClientWorld& world(uint64_t c) { return worlds_[c - begin_]; }
  const ClientWorld& world(uint64_t c) const { return worlds_[c - begin_]; }

  /// Null when pull is off.
  ShardPullHub* hub() { return hub_.get(); }

  /// Null unless adaptation + faults are on.
  adapt::LossMonitor* loss_monitor() { return loss_monitor_.get(); }

  /// Schedule-version re-announces performed (shard-local liveness).
  uint64_t version_bumps() const { return version_bumps_; }

  /// Version-tick events fired (each bump plus the final dead-chain
  /// firing) — engine-infrastructure events the merged event count must
  /// not double-report.
  uint64_t vtick_events() const { return vtick_events_; }

  /// Mirror delivery events fired — likewise engine infrastructure.
  uint64_t mirrors_fired() const { return mirrors_fired_; }

 private:
  void ApplyMailbox();

  uint64_t index_;
  uint64_t begin_;
  uint64_t end_;
  const ShardShared& shared_;
  ClientStore* store_;

  des::Simulation sim_;
  BroadcastChannel channel_;
  std::unique_ptr<ShardPullHub> hub_;
  std::unique_ptr<fault::ServerFaultPlane> server_faults_;
  std::unique_ptr<adapt::LossMonitor> loss_monitor_;
  std::vector<ClientWorld> worlds_;

  uint64_t finished_ = 0;  ///< clients whose measured phase completed

  std::function<void()> version_tick_;
  uint64_t version_bumps_ = 0;
  uint64_t vtick_events_ = 0;
  uint64_t mirrors_fired_ = 0;

  struct PendingMirror {
    PageId page;
    double end;
  };
  struct PendingSwitch {
    const BroadcastProgram* program;
    double service_interval;
    double at;
  };
  std::vector<PendingMirror> pending_mirrors_;
  std::vector<PendingSwitch> pending_switches_;
};

}  // namespace bcast::pop

#endif  // BCAST_POP_SHARD_H_
