#include "core/sim_config.h"

#include <utility>
#include <vector>

#include "common/string_util.h"

namespace bcast {

void SimConfig::RegisterFlags(FlagSet* flags) {
  flags->AddString("disks", &disks, "comma-separated pages per disk");
  flags->AddUint64("delta", &params.delta,
                   "broadcast shape: rel_freq(i) = (N-i)*delta + 1");
  flags->AddString("program", &program,
                   "program kind: multidisk | skewed | random");
  flags->AddString("optimizer", &params.optimizer,
                   "schedule optimizer for the multi-disk program: "
                   "delta | ksy | rbo");
  flags->AddString("policy", &policy,
                   "cache policy: p|pix|lru|l|lix|plix|lru-k|2q|clock");
  flags->AddUint64("cache_size", &params.cache_size, "client cache pages");
  flags->AddUint64("offset", &params.offset,
                   "hot pages shifted to the slow-disk tail");
  flags->AddDouble("noise", &params.noise_percent,
                   "percent of pages with perturbed mapping");
  flags->AddString("noise_scope", &noise_scope,
                   "noise coin population: access_range | all");
  flags->AddUint64("access_range", &params.access_range,
                   "pages the client requests");
  flags->AddDouble("theta", &params.theta, "Zipf skew");
  flags->AddUint64("region_size", &params.region_size, "pages per region");
  flags->AddDouble("think_time", &params.think_time,
                   "pause between requests (broadcast units)");
  flags->AddUint64("requests", &params.measured_requests,
                   "measured requests");
  flags->AddBool("knows_schedule", &params.knows_schedule,
                 "client dozes to its page's slot (tuning metric only)");
  flags->AddDouble("loss", &params.fault.loss,
                   "per-transmission loss probability in [0, 1)");
  flags->AddDouble("burst_len", &params.fault.burst_len,
                   "mean loss-burst length (<=1: i.i.d., >1: Gilbert-"
                   "Elliott)");
  flags->AddDouble("corrupt", &params.fault.corrupt,
                   "per-reception corruption probability in [0, 1)");
  flags->AddDouble("doze", &params.fault.doze_for,
                   "slots the radio dozes per duty cycle (0 = always on)");
  flags->AddDouble("doze_awake", &params.fault.awake_for,
                   "slots the radio is awake per duty cycle");
  flags->AddUint64("fault_seed", &params.fault.fault_seed,
                   "fault RNG seed (independent of --seed)");
  flags->AddUint64("deadline_k", &params.fault.deadline_arrivals,
                   "reception deadline in guaranteed inter-arrival gaps");
  flags->AddDouble("backoff_base", &params.fault.backoff_base,
                   "retry backoff base delay (slots)");
  flags->AddDouble("backoff_cap", &params.fault.backoff_cap,
                   "retry backoff cap (slots)");
  flags->AddDouble("crash_every", &params.fault.process.crash_every,
                   "mean slots between client crash-restarts (0 = never)");
  flags->AddDouble("crash_down", &params.fault.process.crash_down,
                   "slots the client stays down per crash (0 = instant "
                   "reboot)");
  flags->AddString("crash_cache", &crash_cache,
                   "cache fate across a crash: warm (survives) | cold "
                   "(wiped)");
  flags->AddDouble("stall_every", &params.fault.process.stall_every,
                   "mean slots between server transmission stalls");
  flags->AddDouble("stall_len", &params.fault.process.stall_len,
                   "slots each server stall silences the broadcast");
  flags->AddDouble("slot_jitter", &params.fault.process.slot_jitter,
                   "max slot-boundary jitter in slots, in [0, 1)");
  flags->AddDouble("version_every", &params.fault.process.version_every,
                   "slots between schedule-version bumps (0 = never)");
  flags->AddUint64("pull_slots", &params.pull.pull_slots,
                   "pull slots interleaved per minor cycle (0 = pure "
                   "push)");
  flags->AddUint64("uplink_cap", &params.pull.uplink_cap,
                   "backchannel requests accepted per broadcast slot");
  flags->AddString("pull_sched", &pull_sched,
                   "pull-slot scheduler: fcfs | mrf | lxw");
  flags->AddString("des_queue", &des_queue,
                   "DES pending-event backend: heap | calendar | auto "
                   "(auto picks heap for tiny populations; default auto, "
                   "or $BCAST_DES_QUEUE; never changes results)");
  flags->AddDouble("pull_threshold", &params.pull.threshold,
                   "request only when the scheduled wait exceeds this "
                   "many slots");
  flags->AddUint64("pull_timeout", &params.pull.timeout_services,
                   "re-request timeout in pull service intervals");
  flags->AddBool("pull_force", &params.pull.force,
                 "build the pull machinery even with zero pull slots");
  flags->AddUint64("adapt_epoch", &params.adapt.epoch_cycles,
                   "control epoch in major cycles (0 = static program)");
  flags->AddUint64("adapt_promote", &params.adapt.max_promote,
                   "max pages promoted a disk hotter per epoch");
  flags->AddDouble("adapt_queue_high", &params.adapt.queue_high,
                   "grow pull slots when mean queue depth exceeds this");
  flags->AddDouble("adapt_idle_low", &params.adapt.idle_low,
                   "...and the idle-pull-slot rate is below this");
  flags->AddDouble("adapt_idle_high", &params.adapt.idle_high,
                   "shrink pull slots when the idle rate exceeds this");
  flags->AddUint64("adapt_hysteresis", &params.adapt.hysteresis_epochs,
                   "epochs a grow/shrink signal must persist to act");
  flags->AddUint64("adapt_min_slots", &params.adapt.min_slots,
                   "pull-slot floor the controller may choose");
  flags->AddUint64("adapt_max_slots", &params.adapt.max_slots,
                   "pull-slot ceiling the controller may choose");
  flags->AddBool("adapt_reopt", &params.adapt.reopt,
                 "re-run the schedule optimizer each epoch on measured "
                 "access frequencies (demotes as well as promotes)");
  flags->AddUint64("shards", &pop.shards,
                   "population worker shards (1 = classic single-threaded "
                   "path; results are shard-count invariant)");
  flags->AddString("pop_classes", &pop_classes,
                   "receiver classes \"name:frac[:loss_scale[:doze_scale]]"
                   ",...\" (population mode)");
  flags->AddBool("force_pop_engine", &pop.force_engine,
                 "route population runs through the sharded engine even "
                 "with --shards=1");
  flags->AddUint64("seed", &params.seed, "master RNG seed");
}

Status SimConfig::Finalize(const FlagSet* flags) {
  // Set-ness coherence first: these reject flag *combinations* that the
  // default values would silently swallow (e.g. `--burst_len 4` with no
  // loss model configured at all). Only meaningful against a parsed
  // command line.
  if (flags != nullptr) {
    if (flags->WasSet("burst_len") && !flags->WasSet("loss")) {
      return Status::InvalidArgument(
          "--burst_len shapes the loss process; it needs --loss");
    }
    if (flags->WasSet("doze_awake") && !flags->WasSet("doze")) {
      return Status::InvalidArgument(
          "--doze_awake sets the duty cycle's on-phase; it needs --doze");
    }
    for (const char* name : {"crash_down", "crash_cache"}) {
      if (flags->WasSet(name) && !flags->WasSet("crash_every")) {
        return Status::InvalidArgument(
            std::string("--") + name +
            " shapes the crash-restart process; it needs --crash_every");
      }
    }
    if (flags->WasSet("stall_len") && !flags->WasSet("stall_every")) {
      return Status::InvalidArgument(
          "--stall_len sizes the server stalls; it needs --stall_every");
    }
    if (flags->WasSet("uplink_cap") && !flags->WasSet("pull_slots") &&
        !flags->WasSet("pull_force")) {
      return Status::InvalidArgument(
          "--uplink_cap sizes the pull backchannel; it needs "
          "--pull_slots (or --pull_force)");
    }
    // The adaptive controller needs a signal to adapt to: a loss model
    // (frequency repair), pull capacity (slot control), or measured
    // demand (--adapt_reopt re-optimization).
    const bool fault_set = flags->WasSet("loss") ||
                           flags->WasSet("corrupt") ||
                           flags->WasSet("doze");
    const bool pull_set =
        flags->WasSet("pull_slots") || flags->WasSet("pull_force");
    if (flags->WasSet("adapt_epoch") && !fault_set && !pull_set &&
        !flags->WasSet("adapt_reopt")) {
      return Status::InvalidArgument(
          "--adapt_epoch adapts to measured loss, pull load, or measured "
          "demand; it needs --loss (or --corrupt/--doze), --pull_slots "
          "(or --pull_force), or --adapt_reopt");
    }
    // And the controller knobs need the controller.
    for (const char* name :
         {"adapt_promote", "adapt_queue_high", "adapt_idle_low",
          "adapt_idle_high", "adapt_hysteresis", "adapt_min_slots",
          "adapt_max_slots", "adapt_reopt"}) {
      if (flags->WasSet(name) && !flags->WasSet("adapt_epoch")) {
        return Status::InvalidArgument(
            std::string("--") + name +
            " tunes the epoch controller; it needs --adapt_epoch");
      }
    }
  }

  Result<std::vector<uint64_t>> sizes = ParseUint64List(disks);
  if (!sizes.ok()) {
    return Status::InvalidArgument("--disks: " +
                                   sizes.status().ToString());
  }
  params.disk_sizes = *sizes;

  Result<PolicyKind> kind = ParsePolicyKind(policy);
  if (!kind.ok()) return kind.status();
  params.policy = *kind;

  if (program == "multidisk") {
    params.program_kind = ProgramKind::kMultiDisk;
  } else if (program == "skewed") {
    params.program_kind = ProgramKind::kSkewed;
  } else if (program == "random") {
    params.program_kind = ProgramKind::kRandom;
  } else {
    return Status::InvalidArgument("unknown --program: " + program +
                                   " (multidisk|skewed|random)");
  }

  if (noise_scope == "access_range") {
    params.noise_scope = NoiseScope::kAccessRange;
  } else if (noise_scope == "all") {
    params.noise_scope = NoiseScope::kAllPages;
  } else {
    return Status::InvalidArgument("unknown --noise_scope: " +
                                   noise_scope + " (access_range|all)");
  }

  if (crash_cache == "warm") {
    params.fault.process.crash_cold = false;
  } else if (crash_cache == "cold") {
    params.fault.process.crash_cold = true;
  } else {
    return Status::InvalidArgument("unknown --crash_cache: " + crash_cache +
                                   " (warm|cold)");
  }

  if (!des_queue.empty() &&
      !des::ParseQueueBackend(des_queue, &params.des_queue)) {
    return Status::InvalidArgument("unknown --des_queue: " + des_queue +
                                   " (heap|calendar|auto)");
  }

  Result<pull::PullScheduler> sched =
      pull::ParsePullScheduler(pull_sched);
  if (!sched.ok()) {
    return Status::InvalidArgument("--pull_sched: " +
                                   sched.status().ToString());
  }
  params.pull.scheduler = *sched;

  if (!pop_classes.empty()) {
    Result<std::vector<pop::ClassProfile>> classes =
        pop::ParseClassProfiles(pop_classes);
    if (!classes.ok()) {
      return Status::InvalidArgument("--pop_classes: " +
                                     classes.status().ToString());
    }
    pop.classes = std::move(*classes);
  }
  Status pop_status = pop.Validate();
  if (!pop_status.ok()) return pop_status;

  return params.Validate();
}

Status CheckModeFlags(const std::string& mode, const FlagSet& flags) {
  if (mode != "updates") return Status::OK();
  for (const char* name :
       {"trace_out", "trace_timeline", "stats_out", "profile_des"}) {
    if (flags.WasSet(name)) {
      return Status::InvalidArgument(
          std::string("--") + name +
          " does not apply to --mode=updates: the updates runner writes "
          "no trace, timeline, stats stream or DES profile");
    }
  }
  return Status::OK();
}

}  // namespace bcast
