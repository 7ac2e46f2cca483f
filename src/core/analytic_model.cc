#include "core/analytic_model.h"

#include <algorithm>
#include <numeric>

#include "broadcast/analysis.h"
#include "broadcast/generator.h"
#include "common/logging.h"
#include "core/simulator.h"

namespace bcast {

Result<AnalyticPrediction> PredictResponse(const SimParams& params) {
  BCAST_RETURN_IF_ERROR(params.Validate());
  const bool cacheless = params.cache_size == 1;
  if (!cacheless && params.policy != PolicyKind::kP &&
      params.policy != PolicyKind::kPix) {
    return Status::Unimplemented(
        "closed form exists only for P, PIX, or the cache-less baseline; "
        "policy " +
        PolicyKindName(params.policy) + " is history-dependent");
  }

  Result<ServerSchedule> schedule = BuildSchedule(params);
  if (!schedule.ok()) return schedule.status();
  const BroadcastProgram* const program = &schedule->program;

  // Identical noise realization to RunSimulation's.
  const Rng master(params.seed);
  NoiseModel noise;
  noise.percent = params.noise_percent;
  noise.coin_pages = params.noise_scope == NoiseScope::kAccessRange
                         ? params.access_range
                         : 0;
  noise.destination = params.noise_destination;
  Result<Mapping> mapping =
      Mapping::Make(schedule->layout, params.offset, noise,
                    master.Split(internal::kNoiseStream));
  if (!mapping.ok()) return mapping.status();

  Result<RegionZipfGenerator> zipf = RegionZipfGenerator::Make(
      params.access_range, params.region_size, params.theta);
  if (!zipf.ok()) return zipf.status();

  // Steady-state cache content: top-CacheSize pages by the policy's
  // static value. Equal-value boundary pages are chosen by page id;
  // arrival order decides in the simulator, but since tied pages have
  // equal probability the hit rate is unaffected and the disk breakdown
  // only marginally so.
  std::vector<PageId> cached;
  if (!cacheless) {
    std::vector<std::pair<double, PageId>> values;
    values.reserve(params.access_range);
    for (PageId l = 0; l < params.access_range; ++l) {
      double value = zipf->Probability(l);
      if (params.policy == PolicyKind::kPix) {
        const double freq =
            program->NormalizedFrequency(mapping->ToPhysical(l));
        BCAST_CHECK_GT(freq, 0.0);
        value /= freq;
      }
      values.emplace_back(value, l);
    }
    const size_t k =
        std::min<size_t>(params.cache_size, values.size());
    std::partial_sort(values.begin(), values.begin() + k, values.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    cached.reserve(k);
    for (size_t i = 0; i < k; ++i) cached.push_back(values[i].second);
  }
  std::vector<bool> is_cached(params.access_range, false);
  for (PageId l : cached) is_cached[l] = true;

  AnalyticPrediction prediction;
  prediction.cached_pages = std::move(cached);
  prediction.disk_fractions.assign(program->num_disks(), 0.0);
  for (PageId l = 0; l < params.access_range; ++l) {
    const double p = zipf->Probability(l);
    if (p <= 0.0) continue;
    if (is_cached[l]) {
      prediction.hit_rate += p;
      continue;
    }
    const PageId physical = mapping->ToPhysical(l);
    prediction.response_time +=
        p * (ExpectedDelay(*program, physical) + 1.0);
    prediction.disk_fractions[program->DiskOf(physical)] += p;
  }
  return prediction;
}

}  // namespace bcast
