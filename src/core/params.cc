#include "core/params.h"

#include <cmath>
#include <numeric>

#include "broadcast/disk_config.h"
#include "broadcast/schedule_optimizer.h"
#include "common/string_util.h"

namespace bcast {

uint64_t SimParams::ServerDbSize() const {
  return std::accumulate(disk_sizes.begin(), disk_sizes.end(), uint64_t{0});
}

Status ValidateServerParams(const std::vector<uint64_t>& disk_sizes,
                            uint64_t delta,
                            const std::vector<uint64_t>& rel_freqs,
                            ProgramKind program_kind,
                            const std::string& optimizer,
                            const fault::FaultParams& fault,
                            const pull::PullParams& pull,
                            const adapt::AdaptParams& adapt) {
  if (disk_sizes.empty()) {
    return Status::InvalidArgument("disk_sizes must not be empty");
  }
  for (uint64_t s : disk_sizes) {
    if (s == 0) return Status::InvalidArgument("disk sizes must be positive");
  }
  if (!rel_freqs.empty() && rel_freqs.size() != disk_sizes.size()) {
    return Status::InvalidArgument(
        "rel_freqs must match disk_sizes in length (or be empty)");
  }
  if (FindScheduleOptimizer(optimizer) == nullptr) {
    return Status::InvalidArgument(
        "unknown optimizer: " + optimizer + " (delta|ksy|rbo)");
  }
  if (optimizer != "delta") {
    if (program_kind != ProgramKind::kMultiDisk) {
      return Status::InvalidArgument(
          "--optimizer applies to the multi-disk program; use "
          "--program=multidisk with --optimizer=" + optimizer);
    }
    if (!rel_freqs.empty()) {
      return Status::InvalidArgument(
          "explicit --freqs pin the schedule; they require "
          "--optimizer=delta");
    }
  }
  Status fault_status = fault.Validate();
  if (!fault_status.ok()) return fault_status;
  Status pull_status = pull.Validate();
  if (!pull_status.ok()) return pull_status;
  if (pull.Active() && program_kind != ProgramKind::kMultiDisk) {
    return Status::InvalidArgument(
        "pull slots interleave into the multi-disk program's minor "
        "cycles; use --program=multidisk with pull");
  }
  if (pull.Active() && optimizer == "rbo") {
    return Status::InvalidArgument(
        "pull slots interleave into chunked minor cycles, which "
        "bit-reversal schedules do not have; use --optimizer=delta or "
        "ksy with pull");
  }
  Status adapt_status = adapt.Validate();
  if (!adapt_status.ok()) return adapt_status;
  if (adapt.Active()) {
    if (program_kind != ProgramKind::kMultiDisk) {
      return Status::InvalidArgument(
          "the adaptive controller regenerates the multi-disk program; "
          "use --program=multidisk with --adapt_epoch");
    }
    if (!fault.Active() && !pull.Active() && !adapt.reopt) {
      return Status::InvalidArgument(
          "adaptation needs a signal to adapt to: enable the fault model "
          "(--loss/--corrupt/--doze) for frequency repair, pull "
          "(--pull_slots/--pull_force) for slot control, or "
          "--adapt_reopt for measured-frequency re-optimization");
    }
  }
  // Delegate frequency validation to the layout builder.
  Result<DiskLayout> layout = rel_freqs.empty()
                                  ? MakeDeltaLayout(disk_sizes, delta)
                                  : MakeLayout(disk_sizes, rel_freqs);
  if (!layout.ok()) return layout.status();
  return Status::OK();
}

Status SimParams::Validate() const {
  BCAST_RETURN_IF_ERROR(ValidateServerParams(disk_sizes, delta, rel_freqs,
                                             program_kind, optimizer, fault,
                                             pull, adapt));
  const uint64_t db = ServerDbSize();
  if (access_range == 0 || access_range > db) {
    return Status::InvalidArgument(
        "access_range must be in [1, ServerDBSize]");
  }
  if (region_size == 0) {
    return Status::InvalidArgument("region_size must be positive");
  }
  if (theta < 0.0 || !std::isfinite(theta)) {
    return Status::InvalidArgument("theta must be finite and >= 0");
  }
  if (cache_size == 0) {
    return Status::InvalidArgument(
        "cache_size must be >= 1 (1 disables caching)");
  }
  if (think_time < 0.0 || !std::isfinite(think_time)) {
    return Status::InvalidArgument("think_time must be finite and >= 0");
  }
  if (offset > db) {
    return Status::InvalidArgument("offset must be <= ServerDBSize");
  }
  if (noise_percent < 0.0 || noise_percent > 100.0) {
    return Status::InvalidArgument("noise_percent must be in [0, 100]");
  }
  if (measured_requests == 0) {
    return Status::InvalidArgument("measured_requests must be positive");
  }
  return Status::OK();
}

std::string SimParams::ToString() const {
  std::vector<std::string> sizes;
  sizes.reserve(disk_sizes.size());
  for (uint64_t s : disk_sizes) sizes.push_back(std::to_string(s));
  std::string summary = StrFormat(
      "disks<%s> delta=%llu policy=%s cache=%llu offset=%llu noise=%.0f%% "
      "theta=%.2f seed=%llu",
      Join(sizes, ",").c_str(), static_cast<unsigned long long>(delta),
      PolicyKindName(policy).c_str(),
      static_cast<unsigned long long>(cache_size),
      static_cast<unsigned long long>(offset), noise_percent, theta,
      static_cast<unsigned long long>(seed));
  // A non-default optimizer is part of the run's identity; the default
  // ("delta") leaves every historical config string untouched.
  if (optimizer != "delta") {
    summary += " optimizer=" + optimizer;
  }
  // Faults extend the identity string only when active, so every
  // pre-fault config string (and golden baseline) is untouched. (Appended
  // piecewise: `" " + std::string` trips GCC 12's -Wrestrict false
  // positive at -O3.)
  if (fault.Active()) {
    summary.append(" ").append(fault.ToString());
  }
  // Same contract for pull: the identity string only grows when the
  // hybrid machinery is on, so pure-push goldens never shift.
  if (pull.Active()) {
    summary.append(" ").append(pull.ToString());
  }
  // And for adaptation: a static run's identity never mentions it.
  if (adapt.Active()) {
    summary.append(" ").append(adapt.ToString());
  }
  return summary;
}

}  // namespace bcast
