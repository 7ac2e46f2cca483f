/// \file sim_config.h
/// \brief The consolidated command-line surface of a simulation run.
///
/// Before this struct existed, every tool and driver re-plumbed the same
/// two dozen simulation flags by hand and re-stated the flag-coherence
/// rules (or forgot to). `SimConfig` owns the whole surface once:
///
///   - `RegisterFlags` binds every simulation flag of SimParams — server
///     geometry, client workload, policy, faults, pull, adaptation — to
///     one `FlagSet`;
///   - `Finalize` parses the string-typed fields (disk list, policy,
///     program kind, noise scope, pull scheduler), enforces every
///     *set-ness* coherence rule (`--burst_len` without `--loss`,
///     `--adapt_epoch` without a loss or pull signal, ...), and runs
///     `SimParams::Validate()` — so a tool cannot accept a combination
///     another tool would reject.
///
/// Tools add their own non-simulation flags (mode, report paths, trace
/// sinks) to the same FlagSet before parsing. Programmatic users (bench
/// drivers, tests) fill the fields directly and call `Finalize(nullptr)`:
/// the set-ness rules are skipped (there is no command line) but parsing
/// and validation still apply.

#ifndef BCAST_CORE_SIM_CONFIG_H_
#define BCAST_CORE_SIM_CONFIG_H_

#include <string>

#include "common/flags.h"
#include "common/status.h"
#include "core/params.h"
#include "pop/pop_params.h"

namespace bcast {

/// \brief One validated simulation configuration, built from flags or
/// filled programmatically.
struct SimConfig {
  /// The validated product; numeric and boolean flags bind directly into
  /// it, string-typed fields below are parsed into it by `Finalize`.
  SimParams params;

  /// Population-engine knobs (`--shards`, `--pop_classes`,
  /// `--force_pop_engine`); `pop.clients` is stamped by the tool from its
  /// population-size flag. Only population-mode tools consult this.
  pop::PopParams pop;

  /// \name Raw string-typed fields (flag syntax), parsed by `Finalize`.
  /// @{
  std::string disks = "500,2000,2500";  ///< comma-separated disk sizes
  std::string policy = "lru";           ///< cache policy name
  std::string program = "multidisk";    ///< multidisk | skewed | random
  std::string noise_scope = "access_range";  ///< access_range | all
  std::string pull_sched = "fcfs";      ///< fcfs | mrf | lxw
  std::string des_queue;  ///< heap | calendar | auto ("" = default)
  std::string crash_cache = "warm";     ///< warm | cold (restart cache fate)
  std::string pop_classes;  ///< "name:frac[:loss[:doze]],..." receiver classes
  /// @}

  /// Registers every simulation flag on \p flags, bound to this config.
  /// The config must outlive the FlagSet's Parse call.
  void RegisterFlags(FlagSet* flags);

  /// Parses the string fields into `params`, enforces the flag-coherence
  /// rules against \p flags (skipped when null — programmatic use), and
  /// validates. On error the message is exactly what the tool should
  /// print (a usage error, exit code 2 by convention).
  Status Finalize(const FlagSet* flags);
};

/// \brief Rejects tool flags that run \p mode ("single", "population",
/// "updates") cannot honor, with a usage-error message. The updates
/// runner drives its own volatile-data loop, which writes no
/// per-request trace, timeline, stats stream or DES profile, so
/// `--trace_out`, `--trace_timeline`, `--stats_out` and `--profile_des`
/// are rejected there. Flags \p flags does not register count as unset.
Status CheckModeFlags(const std::string& mode, const FlagSet& flags);

}  // namespace bcast

#endif  // BCAST_CORE_SIM_CONFIG_H_
