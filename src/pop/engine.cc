#include "pop/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapt/access_monitor.h"
#include "adapt/controller.h"
#include "adapt/loss_monitor.h"
#include "broadcast/channel.h"
#include "client/client.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/client_world.h"
#include "des/simulation.h"
#include "fault/fault_model.h"
#include "obs/stats_stream.h"
#include "obs/stopwatch.h"
#include "obs/timeline.h"
#include "pop/client_store.h"
#include "pop/shard.h"
#include "pull/hybrid.h"
#include "pull/pull_server.h"

namespace bcast::pop {
namespace {

/// Relaxes the core inside a spin loop (x86 `pause`, Arm `yield`).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Drives K shards in lock-step rounds on K threads: shard 0 runs on the
/// calling (coordinator) thread, shards 1..K-1 on worker threads, so
/// K=1 starts no thread at all.
///
/// Two 32-bit words carry a round. The coordinator writes the round's
/// parameters, sets `pending_` to the worker count and bumps `round_`
/// (release); each worker, once its shard reaches the barrier,
/// decrements `pending_` (release); the coordinator's acquire load of
/// `pending_ == 0` closes the round. These release/acquire pairs publish
/// the coordinator's mailbox writes to the workers and the shards' state
/// back, so shard internals need no atomics. The words are 32-bit
/// because libstdc++ waits on those with a bare futex (wider words go
/// through its proxy waiter pool).
///
/// A waiter spins for a short fixed budget before it parks on the word:
/// a round in a coupled run is a few microseconds of work, far less than
/// a futex sleep and wake-up. The spinner yields every 64 `pause`s, so
/// when the scheduler has put it on the same core as the thread it
/// waits for, it hands the core over instead of burning its budget.
/// When the K threads outnumber the host's hardware threads, a spinning
/// waiter would only steal a core some shard needs, so waiters park at
/// once.
class RoundGate {
 public:
  explicit RoundGate(std::vector<std::unique_ptr<Shard>>* shards)
      : shards_(shards),
        spin_(shards->size() <=
              std::max(1u, std::thread::hardware_concurrency())) {
    workers_.reserve(shards_->size() - 1);
    for (size_t s = 1; s < shards_->size(); ++s) {
      workers_.emplace_back(
          [this, shard = (*shards_)[s].get()]() { WorkerMain(shard); });
    }
  }

  ~RoundGate() {
    quit_ = true;
    round_.fetch_add(1, std::memory_order_release);
    round_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Runs one round on every shard; returns when all reached the barrier.
  void RunRound(double barrier, bool to_completion) {
    if (!workers_.empty()) {
      barrier_ = barrier;
      to_completion_ = to_completion;
      pending_.store(static_cast<uint32_t>(workers_.size()),
                     std::memory_order_relaxed);
      round_.fetch_add(1, std::memory_order_release);
      round_.notify_all();
    }
    (*shards_)[0]->RunRound(barrier, to_completion);
    if (!workers_.empty()) {
      Await(pending_, [](uint32_t v) { return v == 0; });
    }
  }

 private:
  /// Spin budget before a waiter parks: long enough to cover the
  /// coordinator's serial part of a small coupled round, short enough
  /// that a waiter on a long round burns little CPU before it sleeps.
  static constexpr std::chrono::microseconds kSpinBudget{20};

  void WorkerMain(Shard* shard) {
    uint32_t seen = 0;
    for (;;) {
      seen = Await(round_, [seen](uint32_t v) { return v != seen; });
      if (quit_) return;
      shard->RunRound(barrier_, to_completion_);
      if (pending_.fetch_sub(1, std::memory_order_release) == 1) {
        pending_.notify_one();
      }
    }
  }

  /// Returns the first value of \p word satisfying \p done, loaded with
  /// acquire: spins up to `kSpinBudget` (when spinning is on), then parks.
  template <typename Done>
  uint32_t Await(const std::atomic<uint32_t>& word, Done done) const {
    uint32_t v = word.load(std::memory_order_acquire);
    if (spin_ && !done(v)) {
      const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
      while (!done(v) && std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 64 && !done(v); ++i) {
          CpuRelax();
          v = word.load(std::memory_order_acquire);
        }
        if (!done(v)) {
          std::this_thread::yield();
          v = word.load(std::memory_order_acquire);
        }
      }
    }
    while (!done(v)) {
      word.wait(v, std::memory_order_acquire);
      v = word.load(std::memory_order_acquire);
    }
    return v;
  }

  std::vector<std::unique_ptr<Shard>>* shards_;
  const bool spin_;
  std::vector<std::thread> workers_;
  std::atomic<uint32_t> round_{0};
  std::atomic<uint32_t> pending_{0};
  // Round parameters: written by the coordinator before it bumps
  // `round_`, read by the workers after they observe the bump.
  double barrier_ = 0.0;
  bool to_completion_ = false;
  bool quit_ = false;
};

/// Lazily-built per-client uplink loss draw state; the coordinator owns
/// every stream, so draw order per client is its submit order — exactly
/// the legacy order (a client has at most one request outstanding).
struct UplinkDraw {
  std::optional<Rng> rng;
  double loss = 0.0;
};

}  // namespace

Result<MultiClientResult> RunPopulationSimulation(
    const MultiClientParams& params, const PopParams& pop,
    const SimObservers& observers) {
  obs::Stopwatch total_watch;
  obs::PhaseTimings timings;

  BCAST_RETURN_IF_ERROR(params.Validate());
  BCAST_RETURN_IF_ERROR(pop.Validate());
  const uint64_t n_clients = params.clients.size();
  const uint64_t n_shards =
      std::min<uint64_t>(pop.shards > 0 ? pop.shards : 1, n_clients);

  const Rng master(params.seed);
  // The schedule construction every runner shares, so the engine and the
  // in-simulation runner race identical schedules.
  Result<ServerSchedule> schedule = [&]() {
    obs::ScopedTimer timer(&timings.build_program_seconds);
    return BuildPopulationSchedule(params, /*with_pull=*/true);
  }();
  if (!schedule.ok()) return schedule.status();
  const DiskLayout* const layout = &schedule->layout;
  const BroadcastProgram* const program = &schedule->program;
  BCAST_RETURN_IF_ERROR(CheckVersionCadence(params, *program));

  const uint64_t total = layout->TotalPages();
  obs::Stopwatch setup_watch;

  // The coordinator's server simulation: the centralized subsystems —
  // pull server, adaptive controller, and the channel the controller
  // steers (no client ever waits on this channel; the shards' replicas
  // carry the waiters).
  // The server simulation hosts only the centralized subsystems (no
  // client waits), so an `auto` backend resolves against zero clients —
  // the heap. Each shard resolves against its own slice (shard.cc).
  const des::QueueBackend resolved_queue =
      des::ResolveQueueBackend(params.des_queue, n_clients);
  des::Simulation server_sim(
      des::ResolveQueueBackend(params.des_queue, /*expected_clients=*/0));
  if (observers.profile_des) server_sim.EnableProfiling();
  server_sim.AttachTimeline(observers.timeline);
  BCAST_TIMELINE(observers.timeline, NameTrack(obs::track::kSim, "des"));
  BroadcastChannel server_channel(&server_sim, program);

  std::unique_ptr<pull::PullServer> pull_server;
  if (params.pull.Active()) {
    pull_server = std::make_unique<pull::PullServer>(
        &server_sim, schedule->hybrid, params.pull);
    BCAST_TIMELINE(observers.timeline, NameTrack(obs::track::kPull, "pull"));
  }
  const bool pull_on = pull_server != nullptr && pull_server->enabled();

  const std::vector<bool> cold_pages = ColdPages(params, *program);

  std::unique_ptr<adapt::LossMonitor> loss_monitor;
  std::unique_ptr<adapt::AccessMonitor> access_monitor;
  std::unique_ptr<adapt::Controller> controller;
  // The controller's epoch-barrier products, captured by its hooks while
  // the server simulation runs and forwarded to the shards before the
  // next round.
  struct SwitchInfo {
    const BroadcastProgram* program;
    double service_interval;
    bool pull_switch;
    double at;
  };
  std::vector<SwitchInfo> pending_switches;
  uint64_t unfinished_total = n_clients;
  if (params.adapt.Active()) {
    if (params.fault.Active()) {
      loss_monitor =
          std::make_unique<adapt::LossMonitor>(static_cast<PageId>(total));
    }
    // --adapt_reopt runs only on a population of one, hence one shard:
    // its client feeds the monitor during shard rounds, and the
    // controller drains it at epoch barriers while the shard is parked.
    if (params.adapt.reopt) {
      access_monitor =
          std::make_unique<adapt::AccessMonitor>(static_cast<PageId>(total));
    }
    adapt::Controller::Hooks hooks;
    hooks.channel = &server_channel;
    hooks.pull = pull_on ? pull_server.get() : nullptr;
    hooks.loss = loss_monitor.get();
    hooks.access = access_monitor.get();
    hooks.make_program = RebuildProgramFor(params.optimizer, program);
    hooks.liveness = [&unfinished_total]() { return unfinished_total > 0; };
    hooks.on_switch = [&pending_switches](
                          const BroadcastProgram* prog,
                          const pull::HybridLayout* hybrid, double now) {
      const double interval =
          hybrid != nullptr && hybrid->enabled()
              ? static_cast<double>(hybrid->minor_len()) /
                    static_cast<double>(hybrid->pull_per_minor)
              : 0.0;
      pending_switches.push_back(
          SwitchInfo{prog, interval, hybrid != nullptr, now});
    };
    controller = std::make_unique<adapt::Controller>(&server_sim, *layout,
                                                     params.adapt, hooks);
    BCAST_TIMELINE(observers.timeline,
                   NameTrack(obs::track::kController, "adapt"));
  }

  // Pull transmissions observed on the server, mirrored into every
  // shard's next round (each delivery ends strictly after the barrier
  // that produced it, so the mirror always lands inside the next round).
  std::vector<std::pair<PageId, double>> pending_mirrors;
  if (pull_server != nullptr) {
    pull_server->SetServiceFanout([&pending_mirrors](PageId page,
                                                     double end) {
      pending_mirrors.emplace_back(page, end);
    });
  }

  ClientStore store(n_clients, n_shards, pop.classes,
                    /*need_pull=*/params.pull.Active(),
                    /*need_cold=*/params.adapt.Active());

  ShardShared shared;
  shared.params = &params;
  shared.layout = layout;
  shared.program = program;
  shared.hybrid = &schedule->hybrid;
  shared.cold_pages = &cold_pages;
  shared.timeline = observers.timeline;
  shared.trace = observers.trace;
  shared.pull_enabled = pull_on;
  shared.service_interval =
      pull_server != nullptr ? pull_server->ServiceInterval() : 0.0;
  shared.need_loss_monitor = loss_monitor != nullptr;
  shared.need_cold_wait = controller != nullptr;
  shared.access_monitor = access_monitor.get();
  shared.profile_des = observers.profile_des;

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n_shards);
  for (uint64_t s = 0; s < n_shards; ++s) {
    shards.push_back(std::make_unique<Shard>(
        s, store.ShardBeginOf(s), store.ShardEndOf(s), shared, &store));
    BCAST_RETURN_IF_ERROR(shards.back()->Build(master));
  }
  timings.setup_seconds = setup_watch.ElapsedSeconds();

  // Merged DES event count: shard events minus engine infrastructure
  // (delivery mirrors; all but the longest version-tick chain, which
  // stands in for the legacy single chain) plus the server simulation's
  // own events. On uncoupled configurations this equals the legacy
  // single-simulation count exactly.
  auto merged_events = [&]() {
    uint64_t events = server_sim.events_dispatched();
    uint64_t max_vticks = 0;
    for (const auto& shard : shards) {
      events += shard->sim().events_dispatched() - shard->mirrors_fired() -
                shard->vtick_events();
      max_vticks = std::max(max_vticks, shard->vtick_events());
    }
    return events + max_vticks;
  };

  // The population stats sampler (see RunMultiClientSimulation): same
  // fields, but sampled by the coordinator at round barriers — it adds
  // no DES events to any simulation.
  const bool stats_on = observers.stats != nullptr;
  const double stats_interval =
      stats_on ? std::max(observers.stats_interval, 1.0) : 0.0;
  obs::StatsSample prev;
  double prev_rt_sum = 0.0;
  std::vector<ClassProfile> stat_classes = pop.classes;
  if (stat_classes.empty()) stat_classes.push_back(ClassProfile{});
  auto take_stats_sample = [&](bool final_sample, double t) {
    obs::StatsSample s;
    s.t = t;
    s.wall_seconds = observers.stats->ElapsedSeconds();
    s.events = merged_events();
    double rt_sum = 0.0;
    std::vector<std::optional<obs::LogHistogram>> class_rt(
        stat_classes.size());
    for (const auto& shard : shards) {
      for (uint64_t c = shard->begin(); c < shard->end(); ++c) {
        const ClientWorld& world = shard->world(c);
        AddToStatsSample(world, &s, &rt_sum);
        const obs::LogHistogram& rt =
            world.client->metrics().response_histogram();
        const uint32_t k = store.class_of(c);
        if (!class_rt[k].has_value()) {
          class_rt[k].emplace(rt);
        } else {
          class_rt[k]->Merge(rt);
        }
      }
    }
    FinishStatsSample(prev, prev_rt_sum, rt_sum, &s);
    if (pull_server != nullptr) {
      s.pull_queue_depth = pull_server->queue_depth();
      s.pull_serviced = pull_server->stats().serviced_pages;
    }
    s.pop_clients = n_clients;
    s.pop_shards = n_shards;
    s.pop_req_rate = stats_interval > 0.0
                         ? static_cast<double>(s.win_requests) /
                               stats_interval
                         : 0.0;
    for (const auto& h : class_rt) {
      if (h.has_value()) {
        s.pop_worst_p99 = std::max(s.pop_worst_p99, h->Summary().p99);
      }
    }
    s.final_sample = final_sample;
    prev = s;
    prev_rt_sum = rt_sum;
    observers.stats->Write(s);
  };

  double next_stats = stats_interval;
  bool stats_armed = stats_on;
  double last_stats_time = 0.0;

  const double horizon = observers.horizon;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t_cursor = 0.0;
  bool first_round = true;
  double pull_origin = 0.0;
  bool fully_drained = false;
  uint64_t rounds = 0;
  std::vector<UplinkMsg> msgs;
  std::unordered_map<uint64_t, UplinkDraw> uplink_draws;

  obs::Stopwatch run_watch;
  if (controller != nullptr) controller->Start();
  {
    RoundGate gate(&shards);
    for (;;) {
      // The round barrier: the earliest upcoming coupling time. Pull
      // slot starts all become barriers (a service decision may fire at
      // any of them once a request is queued); epoch ticks and stats
      // samples add theirs. No coupling at all → run to completion.
      double barrier = kInf;
      if (pull_on) {
        // First round only: a pull slot starting at t=0 can service a
        // submit from the t=0 client start-up events.
        const double from = first_round ? t_cursor : t_cursor + 1.0;
        barrier = std::min(
            barrier, pull_origin + pull_server->layout().NextPullSlotStart(
                                       from - pull_origin));
      }
      if (controller != nullptr &&
          controller->next_tick_time() > t_cursor) {
        barrier = std::min(barrier, controller->next_tick_time());
      }
      if (stats_armed) barrier = std::min(barrier, next_stats);
      bool to_completion = barrier == kInf;
      if (horizon > 0.0 && (to_completion || barrier > horizon)) {
        barrier = horizon;
        to_completion = false;
      }

      gate.RunRound(barrier, to_completion);
      ++rounds;
      first_round = false;

      // Population liveness at the barrier, read by the controller's
      // tick (and the stats arm logic) during the server round.
      unfinished_total = 0;
      for (const auto& shard : shards) {
        unfinished_total += shard->unfinished();
      }

      // Replay the round's uplink submits in canonical (time, client)
      // order: backchannel admission, the per-client in-flight loss
      // draw, enqueue — identical accounting for every shard count.
      if (pull_server != nullptr) {
        msgs.clear();
        for (const auto& shard : shards) {
          if (shard->hub() == nullptr) continue;
          UplinkMsg m;
          while (shard->hub()->queue().TryPop(&m)) msgs.push_back(m);
        }
        std::stable_sort(msgs.begin(), msgs.end(),
                         [](const UplinkMsg& a, const UplinkMsg& b) {
                           if (a.t != b.t) return a.t < b.t;
                           return a.client < b.client;
                         });
        for (const UplinkMsg& m : msgs) {
          if (!pull_server->TryUplink(m.t, m.re_request)) continue;
          auto [it, inserted] = uplink_draws.try_emplace(m.client);
          if (inserted) {
            const fault::FaultParams scaled =
                ScaledFaultParams(params.fault, params.clients[m.client]);
            if (scaled.Active() && scaled.loss > 0.0) {
              it->second.rng = fault::FaultStream(Rng(scaled.fault_seed),
                                                  m.client,
                                                  fault::Purpose::kUplink);
              it->second.loss = scaled.loss;
            }
          }
          UplinkDraw& draw = it->second;
          if (draw.loss > 0.0 && draw.rng->NextDouble() < draw.loss) {
            pull_server->NoteUplinkLost();
            continue;
          }
          pull_server->Enqueue(m.page, m.t);
        }
      }

      // Fold shard loss windows into the controller's monitor right
      // before an epoch tick could drain them; shard order, pure
      // integer addition.
      if (loss_monitor != nullptr && !to_completion &&
          controller->next_tick_time() == barrier) {
        for (const auto& shard : shards) {
          loss_monitor->Absorb(*shard->loss_monitor());
        }
      }

      if (to_completion) {
        server_sim.Run();
        fully_drained = true;
      } else {
        server_sim.RunUntil(barrier);
      }

      // Forward the server round's products into next round's
      // mailboxes.
      for (const SwitchInfo& sw : pending_switches) {
        if (sw.pull_switch) pull_origin = sw.at;
        for (const auto& shard : shards) {
          shard->QueueSwitch(sw.program, sw.service_interval, sw.at);
        }
      }
      pending_switches.clear();
      for (const auto& [page, end] : pending_mirrors) {
        for (const auto& shard : shards) shard->QueueMirror(page, end);
      }
      pending_mirrors.clear();

      if (stats_armed && !to_completion && barrier == next_stats) {
        take_stats_sample(false, barrier);
        last_stats_time = barrier;
        stats_armed = unfinished_total > 0;
        next_stats += stats_interval;
      }
      if (!to_completion) t_cursor = barrier;

      if (unfinished_total == 0) break;
      if (to_completion) break;  // drained dry with clients unfinished
      if (horizon > 0.0 && t_cursor >= horizon) {
        for (const auto& shard : shards) {
          for (uint64_t c = shard->begin(); c < shard->end(); ++c) {
            if (!shard->world(c).client->finished()) {
              return Status::Internal(StrFormat(
                  "no-hang violation: client %zu unfinished at horizon "
                  "%.0f (t=%.0f, events=%llu)",
                  static_cast<size_t>(c), horizon, t_cursor,
                  static_cast<unsigned long long>(merged_events())));
            }
          }
        }
      }
    }

    // Drain the tails: pending version ticks in the shards, the
    // controller's final (dead-liveness) tick and any queued pull
    // deliveries in the server simulation. Mirrors produced here have
    // no waiters left and are dropped.
    if (!fully_drained) {
      gate.RunRound(0.0, /*to_completion=*/true);
      ++rounds;
      server_sim.Run();
      pending_switches.clear();
      pending_mirrors.clear();
    }
    // The one legacy stats tick that survives every client (scheduled
    // while someone was still running): sampled at its grid time.
    if (stats_armed && stats_on) {
      take_stats_sample(false, next_stats);
      last_stats_time = next_stats;
    }
  }  // joins the gate's workers
  timings.measured_seconds = run_watch.ElapsedSeconds();

  double end_time = server_sim.Now();
  for (const auto& shard : shards) {
    end_time = std::max(end_time, shard->sim().Now());
  }
  end_time = std::max(end_time, last_stats_time);

  MultiClientResult result;
  result.aggregate = ClientMetrics(program->num_disks());
  uint64_t version_bumps = 0;
  for (const auto& shard : shards) {
    version_bumps = std::max(version_bumps, shard->version_bumps());
    for (uint64_t c = shard->begin(); c < shard->end(); ++c) {
      BCAST_CHECK(shard->world(c).client->finished())
          << "client " << c << " did not finish";
      AddClientOutcome(shard->world(c), &result);
    }
  }
  if (result.faults_active) result.faults.version_bumps = version_bumps;
  if (stats_on) take_stats_sample(true, end_time);
  if (pull_server != nullptr) {
    pull_server->FinishRun(end_time);
    result.pull_stats = pull_server->stats();
    // Delivery offers consumed on the shards' air side plus every
    // client's own bookkeeping block, folded in client order.
    for (const auto& shard : shards) {
      if (shard->hub() != nullptr) {
        result.pull_stats.pull_deliveries += shard->hub()->pull_deliveries();
      }
    }
    store.MergePullStats(&result.pull_stats);
    result.pull_active = true;
  }
  if (controller != nullptr) {
    result.adapt_stats = controller->stats();
    store.MergeColdWait(&result.adapt_stats.cold_wait);
    result.adapt_active = true;
  }
  result.period = program->period();
  result.empty_slots = program->EmptySlots();
  result.end_time = end_time;
  result.events_dispatched = merged_events();
  result.rounds = rounds;
  result.predicted_delay = schedule->predicted_delay;
  result.resolved_queue = resolved_queue;
  if (observers.profile_des) {
    result.profile = server_sim.profile();
    for (const auto& shard : shards) {
      result.profile.Merge(shard->sim().profile());
    }
    result.profile_active = true;
  }
  timings.total_seconds = total_watch.ElapsedSeconds();
  result.timings = timings;
  return result;
}

void AppendPopulationExtras(const PopParams& pop,
                            const MultiClientResult& result,
                            obs::RunReport* report) {
  const uint64_t n = result.per_client.size();
  if (n == 0) return;
  const uint64_t shards = std::min<uint64_t>(
      pop.shards > 0 ? pop.shards : 1, n);
  report->extra.emplace_back("pop_clients", static_cast<double>(n));
  report->extra.emplace_back("pop_shards", static_cast<double>(shards));
  report->extra.emplace_back("pop_engine", pop.UseEngine() ? 1.0 : 0.0);
  report->extra.emplace_back("pop_rounds",
                             static_cast<double>(result.rounds));

  // The heaviest single client: its total accumulated measured wait.
  double max_flow = 0.0;
  for (const ClientMetrics& m : result.per_client) {
    max_flow = std::max(max_flow, m.response_time().sum());
  }
  report->extra.emplace_back("pop_max_flow_time", max_flow);

  std::vector<ClassProfile> classes = pop.classes;
  if (classes.empty()) classes.push_back(ClassProfile{});
  const double pop_mean = result.aggregate.mean_response_time();
  const uint64_t num_disks = result.aggregate.served_per_disk().size();
  std::vector<ClientMetrics> per_class(classes.size(),
                                       ClientMetrics(num_disks));
  std::vector<uint64_t> class_counts(classes.size(), 0);
  for (uint64_t c = 0; c < n; ++c) {
    const uint32_t k = ClassOfClient(c, n, classes);
    per_class[k].Merge(result.per_client[c]);
    ++class_counts[k];
  }
  double worst_p99 = 0.0;
  double stretch_max = 0.0;
  for (size_t k = 0; k < classes.size(); ++k) {
    const obs::HistogramSummary rt =
        per_class[k].response_histogram().Summary();
    const double mean = per_class[k].mean_response_time();
    const double stretch = pop_mean > 0.0 ? mean / pop_mean : 0.0;
    const std::string prefix =
        "class" + std::to_string(k) + "_" + classes[k].name + "_";
    report->extra.emplace_back(prefix + "clients",
                               static_cast<double>(class_counts[k]));
    report->extra.emplace_back(prefix + "mean_rt", mean);
    report->extra.emplace_back(prefix + "rt_p50", rt.p50);
    report->extra.emplace_back(prefix + "rt_p90", rt.p90);
    report->extra.emplace_back(prefix + "rt_p99", rt.p99);
    report->extra.emplace_back(prefix + "rt_max", rt.max);
    report->extra.emplace_back(prefix + "stretch", stretch);
    worst_p99 = std::max(worst_p99, rt.p99);
    stretch_max = std::max(stretch_max, stretch);
  }
  report->extra.emplace_back("pop_worst_class_p99", worst_p99);
  report->extra.emplace_back("pop_stretch_max", stretch_max);
}

}  // namespace bcast::pop
