#include "pop/shard.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "fault/recovery.h"

namespace bcast::pop {

Shard::Shard(uint64_t index, uint64_t begin, uint64_t end,
             const ShardShared& shared, ClientStore* store)
    : index_(index),
      begin_(begin),
      end_(end),
      shared_(shared),
      store_(store),
      // An `auto` backend resolves against this shard's own slice: the
      // backends are bit-identical by contract, so per-shard choices
      // never show up in results — only in wall-clock.
      sim_(des::ResolveQueueBackend(shared.params->des_queue, end - begin)),
      channel_(&sim_, shared.program) {
  BCAST_CHECK(begin < end);
  if (shared_.profile_des) sim_.EnableProfiling();
  sim_.AttachTimeline(shared_.timeline);
  BCAST_TIMELINE(shared_.timeline,
                 NameTrack(obs::track::Shard(static_cast<uint32_t>(index)),
                           "shard" + std::to_string(index)));
  const MultiClientParams& params = *shared_.params;
  if (params.pull.Active()) {
    hub_ = std::make_unique<ShardPullHub>(shared_.pull_enabled,
                                          shared_.service_interval);
    if (shared_.pull_enabled) channel_.AttachPullServer(hub_.get());
  }
  // Server-side faults replicate per shard: same (0, kStall)/(0, kJitter)
  // seeds, and FaultWindows materializes identical windows under any
  // query order, so every replica answers exactly like the legacy
  // shared plane.
  server_faults_ = fault::MakeServerFaultPlane(params.fault);
  if (shared_.need_loss_monitor) {
    loss_monitor_ = std::make_unique<adapt::LossMonitor>(
        static_cast<PageId>(shared_.layout->TotalPages()));
  }
  // Adaptive runs switch programs mid-flight; the legacy Controller
  // enables resync on its channel at construction (before any client
  // wait), and every shard replica must mirror that so the queued
  // program switches can be applied.
  if (shared_.need_cold_wait) channel_.EnableResync();
}

Status Shard::Build(const Rng& master) {
  const MultiClientParams& params = *shared_.params;
  ClientWorldDeps deps;
  deps.sim = &sim_;
  deps.channel = &channel_;
  deps.layout = shared_.layout;
  deps.program = shared_.program;
  deps.hybrid = shared_.hybrid;
  deps.timeline = shared_.timeline;
  deps.trace = shared_.trace;
  deps.loss_monitor = loss_monitor_.get();
  deps.access_monitor = shared_.access_monitor;
  deps.server_faults = server_faults_.get();
  deps.cold_pages = shared_.cold_pages;
  deps.finished_count = &finished_;
  if (hub_ != nullptr) {
    // Transport-attached requester: submits cross the SPSC queue to the
    // coordinator, which owns the per-client uplink loss streams (draw
    // order stays canonical no matter how clients shard).
    deps.make_pull = [this, &params](size_t c, const fault::FaultParams&) {
      return std::make_unique<pull::PullClient>(
          &sim_, hub_->MakeTransport(c, store_->pull_stats(c)),
          params.pull);
    };
  }
  if (shared_.need_cold_wait) {
    deps.cold_wait_for = [this](size_t c) { return store_->cold_wait(c); };
  }
  worlds_.resize(end_ - begin_);
  for (uint64_t c = begin_; c < end_; ++c) {
    BCAST_RETURN_IF_ERROR(
        BuildClientWorld(params, c, master, deps, &worlds_[c - begin_]));
  }
  for (auto& world : worlds_) sim_.Spawn(world.client->Run());

  // Shard-local schedule-version tick chain (see RunMultiClientSimulation):
  // the re-announce only touches this shard's in-flight waits, and the
  // chain dies with this shard's last client. The population-wide bump
  // count is the max over shards — the longest-living shard ticks exactly
  // as long as the legacy single-sim chain would.
  if (params.fault.process.version_every > 0.0) {
    channel_.EnableResync();
    const double every = params.fault.process.version_every;
    version_tick_ = [this, every]() {
      ++vtick_events_;
      if (sim_.live_processes() == 0) return;
      channel_.SetProgram(&channel_.program(), sim_.Now());
      ++version_bumps_;
      sim_.Schedule(every, version_tick_, des::EventKind::kController);
    };
    sim_.Schedule(every, version_tick_, des::EventKind::kController);
  }
  return Status::OK();
}

void Shard::QueueMirror(PageId page, double end) {
  pending_mirrors_.push_back(PendingMirror{page, end});
}

void Shard::QueueSwitch(const BroadcastProgram* program,
                        double service_interval, double at) {
  pending_switches_.push_back(PendingSwitch{program, service_interval, at});
}

void Shard::ApplyMailbox() {
  // Switches first: a mirror delivered under the new program must see
  // the channel already resynced, exactly as the legacy path orders
  // SetProgram (at the epoch tick) before the delivery (a strictly later
  // event).
  for (const PendingSwitch& sw : pending_switches_) {
    channel_.SetProgram(sw.program, sw.at);
    if (hub_ != nullptr) hub_->set_service_interval(sw.service_interval);
    BCAST_TIMELINE(shared_.timeline,
                   Instant(obs::track::Shard(static_cast<uint32_t>(index_)),
                           "program_switch", "pop", sw.at,
                           {{"shard", static_cast<double>(index_)}}));
  }
  pending_switches_.clear();
  for (const PendingMirror& m : pending_mirrors_) {
    sim_.ScheduleAt(
        m.end,
        [this, m]() {
          ++mirrors_fired_;
          hub_->Deliver(m.page, m.end);
        },
        des::EventKind::kPull);
  }
  pending_mirrors_.clear();
}

void Shard::RunRound(double barrier, bool to_completion) {
  ApplyMailbox();
  if (to_completion) {
    sim_.Run();
  } else {
    sim_.RunUntil(barrier);
  }
  BCAST_TIMELINE(shared_.timeline,
                 Counter(obs::track::Shard(static_cast<uint32_t>(index_)),
                         "shard_unfinished",
                         to_completion ? sim_.Now() : barrier,
                         static_cast<double>(unfinished())));
}

}  // namespace bcast::pop
