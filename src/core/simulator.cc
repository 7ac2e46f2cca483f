#include "core/simulator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/zipf.h"
#include "core/multi_client.h"

namespace bcast {

std::vector<double> NominalAccessProbs(uint64_t access_range,
                                       uint64_t region_size, double theta,
                                       uint64_t db_size) {
  std::vector<double> probs(db_size, 0.0);
  Result<RegionZipfGenerator> zipf =
      RegionZipfGenerator::Make(access_range, region_size, theta);
  BCAST_CHECK(zipf.ok()) << zipf.status().ToString();
  const uint64_t hot = std::min(access_range, db_size);
  for (uint64_t page = 0; page < hot; ++page) {
    probs[page] = zipf->Probability(page);
  }
  // A partial final region crams its full Zipf weight into fewer pages,
  // making the tail *hotter* per page than the region before it — which
  // would break the non-increasing contract. The server designs for
  // uniform-width regions: rescale the tail back to full region width.
  const uint64_t rem = access_range % region_size;
  if (rem != 0 && access_range > region_size) {
    for (uint64_t page = access_range - rem; page < hot; ++page) {
      probs[page] *= static_cast<double>(rem) / region_size;
    }
  }
  return probs;
}

Result<ServerSchedule> BuildSchedule(const SimParams& params) {
  BCAST_RETURN_IF_ERROR(params.Validate());
  return BuildPopulationSchedule(PopulationFromSimParams(params, 1),
                                 /*with_pull=*/false);
}

Result<BroadcastProgram> BuildProgram(const SimParams& params) {
  Result<ServerSchedule> schedule = BuildSchedule(params);
  if (!schedule.ok()) return schedule.status();
  return std::move(schedule->program);
}

namespace {

// Records a finished single-client run under the registry's "sim/",
// "fault/", "pull/" and "adapt/" prefixes.
void ExportToRegistry(const SimParams& params, const SimResult& result,
                      obs::MetricsRegistry* registry) {
  obs::MetricsRegistry& reg = *registry;
  reg.GetCounter("sim/requests")->Increment(result.metrics.requests());
  reg.GetCounter("sim/cache_hits")->Increment(result.metrics.cache_hits());
  reg.GetCounter("sim/warmup_requests")->Increment(result.warmup_requests);
  reg.GetCounter("sim/events")->Increment(result.events_dispatched);
  reg.GetGauge("sim/period")->Set(static_cast<double>(result.period));
  reg.GetGauge("sim/end_time")->Set(result.end_time);
  reg.GetHistogram("sim/response_slots")
      ->Merge(result.metrics.response_histogram());
  reg.GetHistogram("sim/tuning_slots")
      ->Merge(result.metrics.tuning_histogram());
  if (result.faults_active) {
    const fault::FaultStats& fs = result.faults;
    reg.GetCounter("fault/attempts")->Increment(fs.attempts);
    reg.GetCounter("fault/delivered")->Increment(fs.delivered);
    reg.GetCounter("fault/lost")->Increment(fs.lost);
    reg.GetCounter("fault/corrupted")->Increment(fs.corrupted);
    reg.GetCounter("fault/retries")->Increment(fs.retries);
    reg.GetCounter("fault/doze_missed_arrivals")
        ->Increment(fs.doze_missed_arrivals);
    reg.GetCounter("fault/deadline_expiries")
        ->Increment(fs.deadline_expiries);
    reg.GetCounter("fault/loss_delayed_fetches")
        ->Increment(fs.loss_delayed_fetches);
    reg.GetGauge("fault/delivery_ratio")->Set(fs.delivery_ratio());
    reg.GetHistogram("fault/extra_cycles")->Merge(fs.extra_cycles);
    reg.GetHistogram("fault/resync_slots")->Merge(fs.resync_slots);
    if (params.fault.process.Active()) {
      reg.GetCounter("fault/crashes")->Increment(fs.crashes);
      reg.GetCounter("fault/crash_missed_arrivals")
          ->Increment(fs.crash_missed_arrivals);
      reg.GetCounter("fault/stall_missed_arrivals")
          ->Increment(fs.stall_missed_arrivals);
      reg.GetCounter("fault/version_bumps")->Increment(fs.version_bumps);
    }
  }
  if (result.pull_active) {
    const pull::PullStats& ps = result.pull_stats;
    reg.GetCounter("pull/requests")->Increment(ps.requests_attempted);
    reg.GetCounter("pull/re_requests")->Increment(ps.re_requests);
    reg.GetCounter("pull/uplink_accepted")->Increment(ps.uplink_accepted);
    reg.GetCounter("pull/uplink_dropped")->Increment(ps.uplink_dropped);
    reg.GetCounter("pull/uplink_lost")->Increment(ps.uplink_lost);
    reg.GetCounter("pull/serviced_pages")->Increment(ps.serviced_pages);
    reg.GetCounter("pull/idle_slots")->Increment(ps.idle_pull_slots());
    reg.GetCounter("pull/deliveries")->Increment(ps.pull_deliveries);
    reg.GetCounter("pull/push_deliveries")->Increment(ps.push_deliveries);
    reg.GetGauge("pull/service_share")->Set(ps.pull_service_share());
    reg.GetHistogram("pull/queue_depth")->Merge(ps.queue_depth);
    reg.GetHistogram("pull/latency_slots")->Merge(ps.pull_latency);
    reg.GetHistogram("pull/push_latency_slots")->Merge(ps.push_latency);
    reg.GetHistogram("pull/cold_wait_slots")->Merge(ps.cold_wait);
  }
  if (result.adapt_active) {
    const adapt::AdaptStats& as = result.adapt_stats;
    reg.GetCounter("adapt/epochs")->Increment(as.epochs);
    reg.GetCounter("adapt/rebuilds")->Increment(as.rebuilds);
    reg.GetCounter("adapt/promotions")->Increment(as.promotions);
    reg.GetCounter("adapt/demotions")->Increment(as.demotions);
    reg.GetCounter("adapt/reopts")->Increment(as.reopts);
    reg.GetCounter("adapt/slot_grows")->Increment(as.slot_grows);
    reg.GetCounter("adapt/slot_shrinks")->Increment(as.slot_shrinks);
    reg.GetGauge("adapt/initial_slots")
        ->Set(static_cast<double>(as.initial_slots));
    reg.GetGauge("adapt/final_slots")
        ->Set(static_cast<double>(as.final_slots));
    reg.GetGauge("adapt/slot_range_late")
        ->Set(static_cast<double>(as.SlotRangeLate()));
    reg.GetHistogram("adapt/cold_wait_slots")->Merge(as.cold_wait);
  }
}

}  // namespace

Result<SimResult> RunSimulation(const SimParams& params,
                                const SimObservers& observers) {
  BCAST_RETURN_IF_ERROR(params.Validate());
  Result<MultiClientResult> run = internal::RunInSimPopulation(
      PopulationFromSimParams(params, 1), observers,
      internal::kSingleClientStreams);
  if (!run.ok()) return run.status();

  // The one client's own metrics, not the merged aggregate: the
  // histograms and running statistics stay bit-exact.
  SimResult result;
  result.metrics = std::move(run->per_client[0]);
  result.warmup_requests = run->warmup_requests;
  result.end_time = run->end_time;
  result.period = run->period;
  result.empty_slots = run->empty_slots;
  result.perturbed_pages = run->perturbed_pages;
  result.timings = run->timings;
  result.events_dispatched = run->events_dispatched;
  result.faults = std::move(run->faults);
  result.faults_active = run->faults_active;
  result.pull_stats = std::move(run->pull_stats);
  result.pull_active = run->pull_active;
  result.adapt_stats = std::move(run->adapt_stats);
  result.adapt_active = run->adapt_active;
  result.cold_requests = run->cold_requests;
  result.cold_hits = run->cold_hits;
  result.profile = run->profile;
  result.profile_active = run->profile_active;
  result.predicted_delay = run->predicted_delay;
  result.resolved_queue = run->resolved_queue;
  if (observers.registry != nullptr) {
    ExportToRegistry(params, result, observers.registry);
  }
  return result;
}

obs::RunReport MakeRunReport(const SimParams& params,
                             const SimResult& result,
                             const std::string& tool) {
  obs::RunReport report;
  report.tool = tool;
  report.mode = "single";
  report.config = params.ToString();
  report.optimizer = params.optimizer;
  report.seed = params.seed;
  report.period = result.period;
  report.empty_slots = result.empty_slots;
  report.perturbed_pages = result.perturbed_pages;
  report.requests = result.metrics.requests();
  report.warmup_requests = result.warmup_requests;
  report.cache_hits = result.metrics.cache_hits();
  report.response = result.metrics.response_histogram().Summary();
  report.tuning = result.metrics.tuning_histogram().Summary();
  report.served_per_disk = result.metrics.served_per_disk();
  report.end_time = result.end_time;
  report.timings = result.timings;
  report.events_dispatched = result.events_dispatched;
  // Simulated slots produced per wall second of event-loop work. The
  // end_time of one run approximates the slots covered; callers that sum
  // several seeds should rerun FinalizeThroughput with their own totals.
  report.FinalizeThroughput(
      result.end_time,
      result.timings.warmup_seconds + result.timings.measured_seconds);
  // The analytic prediction rides along only for the non-default
  // optimizers: delta reports keep their historical byte format, and the
  // frontier's prediction-vs-simulation cross-check reads it back.
  if (params.optimizer != "delta") {
    report.extra.emplace_back("optimizer_predicted_delay",
                              result.predicted_delay);
  }
  if (result.faults_active) {
    AppendFaultExtras(params.fault, result.faults, &report);
  }
  if (result.pull_active) {
    AppendPullExtras(params.pull, result.pull_stats, &report);
  }
  if (result.adapt_active) {
    AppendAdaptExtras(params.adapt, result.adapt_stats, &report);
  }
  if (result.profile_active) {
    AppendProfileExtras(result.profile, &report);
  }
  return report;
}

void AppendFaultExtras(const fault::FaultParams& params,
                       const fault::FaultStats& stats,
                       obs::RunReport* report) {
  auto add = [report](const char* key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Configured rates first (the degradation checker reads them back),
  // then the observed counters and summary statistics.
  add("fault_loss", params.loss);
  add("fault_burst_len", params.burst_len);
  add("fault_corrupt", params.corrupt);
  add("fault_doze_for", params.doze_for);
  add("fault_awake_for", params.doze_for > 0.0 ? params.awake_for : 0.0);
  add("fault_backoff_cap", params.backoff_cap);
  add("fault_deadline_arrivals",
      static_cast<double>(params.deadline_arrivals));
  add("fault_attempts", static_cast<double>(stats.attempts));
  add("fault_delivered", static_cast<double>(stats.delivered));
  add("fault_lost", static_cast<double>(stats.lost));
  add("fault_corrupted_rx", static_cast<double>(stats.corrupted));
  add("fault_retries", static_cast<double>(stats.retries));
  add("fault_delivery_ratio", stats.delivery_ratio());
  add("fault_doze_missed_arrivals",
      static_cast<double>(stats.doze_missed_arrivals));
  add("fault_deadline_expiries",
      static_cast<double>(stats.deadline_expiries));
  add("fault_loss_delayed_fetches",
      static_cast<double>(stats.loss_delayed_fetches));
  add("fault_extra_cycles_mean",
      stats.extra_cycles.count() == 0
          ? 0.0
          : stats.extra_cycles.sum() /
                static_cast<double>(stats.extra_cycles.count()));
  add("fault_extra_cycles_max", stats.extra_cycles.max());
  add("fault_resync_count", static_cast<double>(stats.resync_slots.count()));
  add("fault_resync_slots_mean",
      stats.resync_slots.count() == 0
          ? 0.0
          : stats.resync_slots.sum() /
                static_cast<double>(stats.resync_slots.count()));
  add("fault_resync_slots_max", stats.resync_slots.max());
  // Process-fault extras last, gated on their own activity: pre-process
  // fault reports keep their exact byte format.
  if (params.process.Active()) {
    add("fault_crash_every", params.process.crash_every);
    add("fault_crash_down", params.process.crash_down);
    add("fault_crash_cold", params.process.crash_cold ? 1.0 : 0.0);
    add("fault_stall_every", params.process.stall_every);
    add("fault_stall_len", params.process.stall_len);
    add("fault_slot_jitter", params.process.slot_jitter);
    add("fault_version_every", params.process.version_every);
    add("fault_crashes", static_cast<double>(stats.crashes));
    add("fault_crash_missed_arrivals",
        static_cast<double>(stats.crash_missed_arrivals));
    add("fault_stall_missed_arrivals",
        static_cast<double>(stats.stall_missed_arrivals));
    add("fault_version_bumps", static_cast<double>(stats.version_bumps));
  }
}

void AppendPullExtras(const pull::PullParams& params,
                      const pull::PullStats& stats,
                      obs::RunReport* report) {
  auto add = [report](const char* key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Configured capacity first (the sweep checker reads it back), then
  // uplink accounting, service mix, and the latency split.
  add("pull_slots", static_cast<double>(params.pull_slots));
  add("pull_uplink_cap", static_cast<double>(params.uplink_cap));
  add("pull_sched", static_cast<double>(static_cast<int>(params.scheduler)));
  add("pull_threshold", params.threshold);
  add("pull_timeout_services",
      static_cast<double>(params.timeout_services));
  add("pull_requests", static_cast<double>(stats.requests_attempted));
  add("pull_re_requests", static_cast<double>(stats.re_requests));
  add("pull_uplink_accepted", static_cast<double>(stats.uplink_accepted));
  add("pull_uplink_dropped", static_cast<double>(stats.uplink_dropped));
  add("pull_uplink_lost", static_cast<double>(stats.uplink_lost));
  add("pull_serviced", static_cast<double>(stats.serviced_pages));
  add("pull_opportunities", static_cast<double>(stats.pull_opportunities));
  add("pull_idle_slots", static_cast<double>(stats.idle_pull_slots()));
  add("pull_deliveries", static_cast<double>(stats.pull_deliveries));
  add("pull_push_deliveries", static_cast<double>(stats.push_deliveries));
  add("pull_service_share", stats.pull_service_share());
  add("pull_queue_depth_mean", stats.queue_depth.mean());
  add("pull_queue_depth_max", stats.queue_depth.max());
  add("pull_latency_mean", stats.pull_latency.mean());
  add("pull_latency_count", static_cast<double>(stats.pull_latency.count()));
  add("pull_push_latency_mean", stats.push_latency.mean());
  add("pull_cold_mean_rt", stats.cold_wait.mean());
  add("pull_cold_count", static_cast<double>(stats.cold_wait.count()));
}

void AppendAdaptExtras(const adapt::AdaptParams& params,
                       const adapt::AdaptStats& stats,
                       obs::RunReport* report) {
  auto add = [report](const char* key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Configured knobs first (the adapt-sweep checker reads them back),
  // then the controller's decision counts, the slot trajectory summary,
  // and the pinned cold-class latency the improvement gate compares.
  add("adapt_epoch_cycles", static_cast<double>(params.epoch_cycles));
  add("adapt_max_promote", static_cast<double>(params.max_promote));
  add("adapt_queue_high", params.queue_high);
  add("adapt_idle_low", params.idle_low);
  add("adapt_idle_high", params.idle_high);
  add("adapt_hysteresis", static_cast<double>(params.hysteresis_epochs));
  add("adapt_min_slots", static_cast<double>(params.min_slots));
  add("adapt_max_slots", static_cast<double>(params.max_slots));
  add("adapt_epochs", static_cast<double>(stats.epochs));
  add("adapt_rebuilds", static_cast<double>(stats.rebuilds));
  add("adapt_promotions", static_cast<double>(stats.promotions));
  // Reopt extras gated on their own activity, like the process-fault
  // rows: pre-reopt adaptive reports keep their exact byte format.
  if (params.reopt) {
    add("adapt_reopt", 1.0);
    add("adapt_reopts", static_cast<double>(stats.reopts));
    add("adapt_demotions", static_cast<double>(stats.demotions));
  }
  add("adapt_slot_grows", static_cast<double>(stats.slot_grows));
  add("adapt_slot_shrinks", static_cast<double>(stats.slot_shrinks));
  add("adapt_initial_slots", static_cast<double>(stats.initial_slots));
  add("adapt_final_slots", static_cast<double>(stats.final_slots));
  add("adapt_slot_range_late", static_cast<double>(stats.SlotRangeLate()));
  add("adapt_cold_mean_rt", stats.cold_wait.mean());
  add("adapt_cold_count", static_cast<double>(stats.cold_wait.count()));
}

void AppendProfileExtras(const des::DesProfile& profile,
                         obs::RunReport* report) {
  auto add = [report](const std::string& key, double value) {
    report->extra.emplace_back(key, value);
  };
  // Totals first, then every kind in enum order — a stable schema even
  // for kinds a particular run never dispatched.
  add("profile_total_dispatches",
      static_cast<double>(profile.total_dispatches()));
  add("profile_total_cpu_ns", static_cast<double>(profile.total_cpu_ns()));
  for (size_t i = 0; i < des::kNumEventKinds; ++i) {
    const std::string name =
        des::EventKindName(static_cast<des::EventKind>(i));
    add("profile_" + name + "_dispatches",
        static_cast<double>(profile.kinds[i].dispatches));
    add("profile_" + name + "_cpu_ns",
        static_cast<double>(profile.kinds[i].cpu_ns));
  }
}

}  // namespace bcast
