#include "layers.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "adapt/repair.h"
#include "broadcast/channel.h"
#include "cache/factory.h"
#include "client/access_generator.h"
#include "client/mapping.h"
#include "common/rng.h"
#include "core/client_world.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "des/event_queue.h"
#include "fault/recovery.h"
#include "obs/histogram.h"
#include "pop/pull_hub.h"
#include "pop/spsc_queue.h"
#include "pull/hybrid.h"
#include "pull/request_queue.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Every timed loop folds its results in here so none is optimized away.
volatile uint64_t g_sink = 0;

template <typename T>
T Must(bcast::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

// Runs `body(ops)` `reps` times; the median nanoseconds per operation.
template <typename Body>
double NsPerOp(uint64_t ops, int reps, Body&& body) {
  std::vector<double> per_op;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    body(ops);
    per_op.push_back(NsSince(start) / static_cast<double>(ops));
  }
  return Median(std::move(per_op));
}

size_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// The air and one client of a workload: its schedule, and the mapping and
// access stream of its first client.
struct Air {
  bcast::SimParams params;
  bcast::ServerSchedule schedule;
  std::unique_ptr<bcast::Mapping> mapping;
  std::unique_ptr<bcast::AccessGenerator> gen;
  std::unique_ptr<bcast::SimCatalog> catalog;

  explicit Air(const Workload& w)
      : params(BatchParams(w, 0)),
        schedule(Must(bcast::BuildSchedule(params), "BuildSchedule")) {
    const bcast::Rng master(params.seed);
    bcast::NoiseModel noise;
    noise.coin_pages = params.access_range;
    mapping = std::make_unique<bcast::Mapping>(
        Must(bcast::Mapping::Make(schedule.layout, 0, noise,
                                  master.Split(bcast::internal::kNoiseStream)),
             "Mapping::Make"));
    gen = std::make_unique<bcast::AccessGenerator>(Must(
        bcast::AccessGenerator::Make(
            params.access_range, params.region_size, params.theta,
            params.think_time, params.think_kind,
            master.Split(bcast::internal::kRequestStream)),
        "AccessGenerator::Make"));
    catalog = std::make_unique<bcast::SimCatalog>(
        gen.get(), &schedule.program, mapping.get());
  }

  std::unique_ptr<bcast::CachePolicy> MakeCache() const {
    return Must(bcast::MakeCachePolicy(
                    params.policy, params.cache_size,
                    static_cast<bcast::PageId>(schedule.layout.TotalPages()),
                    catalog.get(), params.policy_options),
                "MakeCachePolicy");
  }

  // The next \p n pages this client requests, as broadcast pages.
  std::vector<bcast::PageId> PhysicalPages(size_t n) const {
    std::vector<bcast::PageId> pages(n);
    for (bcast::PageId& p : pages) p = mapping->ToPhysical(gen->NextPage());
    return pages;
  }

  // Drives \p cache with this client's requests until it is full.
  void Fill(bcast::CachePolicy* cache, double* now) const {
    while (cache->size() < cache->capacity()) {
      const bcast::PageId page = gen->NextPage();
      *now += 1.0;
      if (!cache->Lookup(page, *now)) cache->Insert(page, *now);
    }
  }
};

// One push, one pop and one dispatch at the workload's depth: events stay
// pending for an exponential time with the workload's observed mean.
double PushPopNs(const LayerContext& ctx) {
  bcast::des::EventQueue queue(ctx.backend);
  bcast::Rng rng(17);
  std::vector<double> gaps(4096);
  for (double& g : gaps) g = rng.NextExponential(ctx.mean_pending_bu);
  uint64_t fired = 0;
  uint64_t k = 0;
  double now = 0.0;
  auto push = [&] {
    queue.Push(now + gaps[k++ & 4095], [&fired] { ++fired; });
  };
  for (uint64_t i = 0; i < ctx.depth; ++i) push();
  const double ns = NsPerOp(1 << 18, 7, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      push();
      double t;
      std::function<void()> fn = queue.Pop(&t);
      now = t;
      fn();
    }
  });
  g_sink = g_sink + fired;
  return ns;
}

// Next-arrival lookups along one client's miss sequence: each lookup starts
// a think time after the previous page arrived.
double NextArrivalNs(const Air& air) {
  const std::vector<bcast::PageId> pages = air.PhysicalPages(4096);
  const bcast::BroadcastProgram& program = air.schedule.program;
  double t = 0.0;
  uint64_t k = 0;
  return NsPerOp(1 << 20, 7, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      t = program.NextArrivalStart(pages[k++ & 4095], t) + 1.0 +
          air.params.think_time;
    }
    g_sink = g_sink + static_cast<uint64_t>(t);
  });
}

double NextPageNs(const Air& air) {
  return NsPerOp(1 << 20, 7, [&](uint64_t n) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i) acc += air.gen->NextPage();
    g_sink = g_sink + acc;
  });
}

// Lookup and insert at steady fill, over as many filled instances as one
// shard of the workload holds, taken in turn the way a shard interleaves
// its clients, so the unit cost is paid at the workload's working set. A
// mixed pass (lookup, insert on miss) and a lookup-only pass over equally
// long request streams separate the two: insert = (mixed - lookups) /
// misses.
void CacheNs(const Air& air, uint64_t instances, double* lookup_ns,
             double* insert_ns) {
  std::vector<std::unique_ptr<bcast::CachePolicy>> caches;
  double now = 0.0;
  for (uint64_t i = 0; i < instances; ++i) {
    caches.push_back(air.MakeCache());
    air.Fill(caches.back().get(), &now);
  }
  constexpr uint64_t kOps = 1 << 17;
  std::vector<bcast::PageId> pages(kOps);
  std::vector<double> lookups, inserts;
  for (int rep = 0; rep < 7; ++rep) {
    for (bcast::PageId& p : pages) p = air.gen->NextPage();
    uint64_t misses = 0;
    size_t next = 0;
    auto start = Clock::now();
    for (bcast::PageId p : pages) {
      bcast::CachePolicy* cache = caches[next].get();
      if (++next == caches.size()) next = 0;
      now += 1.0;
      if (!cache->Lookup(p, now)) {
        cache->Insert(p, now);
        ++misses;
      }
    }
    const double mixed = NsSince(start);
    for (bcast::PageId& p : pages) p = air.gen->NextPage();
    uint64_t hits = 0;
    start = Clock::now();
    for (bcast::PageId p : pages) {
      bcast::CachePolicy* cache = caches[next].get();
      if (++next == caches.size()) next = 0;
      now += 1.0;
      hits += cache->Lookup(p, now) ? 1 : 0;
    }
    const double only = NsSince(start);
    g_sink = g_sink + hits;
    lookups.push_back(only / kOps);
    if (misses > 0) {
      inserts.push_back((mixed - only) / static_cast<double>(misses));
    }
  }
  *lookup_ns = Median(lookups);
  *insert_ns = Median(inserts);
}

double CacheBytes(const Air& air) {
  constexpr int kInstances = 32;
  std::vector<std::unique_ptr<bcast::CachePolicy>> caches;
  double now = 0.0;
  const size_t before = HeapBytes();
  for (int i = 0; i < kInstances; ++i) {
    caches.push_back(air.MakeCache());
    air.Fill(caches.back().get(), &now);
  }
  return (static_cast<double>(HeapBytes()) - static_cast<double>(before)) /
         kInstances;
}

// BuildClientWorld for a block of the workload's clients against a private
// simulation and channel; also the heap bytes one world holds.
void WorldBuild(const Air& air, double* us, double* bytes) {
  constexpr uint64_t kClients = 256;
  const bcast::MultiClientParams mp = PopulationParams(air.params, kClients);
  const bcast::Rng master(mp.seed);
  bcast::des::Simulation sim;
  bcast::BroadcastChannel channel(&sim, &air.schedule.program);
  bcast::ClientWorldDeps deps;
  deps.sim = &sim;
  deps.channel = &channel;
  deps.layout = &air.schedule.layout;
  deps.program = &air.schedule.program;
  std::vector<double> per_client;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<bcast::ClientWorld> worlds(kClients);
    const size_t before = HeapBytes();
    const auto start = Clock::now();
    for (uint64_t c = 0; c < kClients; ++c) {
      const bcast::Status st =
          bcast::BuildClientWorld(mp, c, master, deps, &worlds[c]);
      if (!st.ok()) Die("BuildClientWorld: " + st.ToString());
    }
    per_client.push_back(1e-3 * NsSince(start) / kClients);
    if (rep == 0) {
      *bytes =
          (static_cast<double>(HeapBytes()) - static_cast<double>(before)) /
          kClients;
    }
  }
  *us = Median(per_client);
}

double SpscNs() {
  bcast::pop::SpscQueue<bcast::pop::UplinkMsg> queue(1024);
  bcast::pop::UplinkMsg msg;
  return NsPerOp(1 << 20, 7, [&](uint64_t n) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < n; ++i) {
      msg.client = i;
      queue.Push(msg);
      bcast::pop::UplinkMsg out;
      if (queue.TryPop(&out)) acc += out.client;
    }
    g_sink = g_sink + acc;
  });
}

// The updates runner's lazy Poisson clocks: ns per update drawn while a
// client examines pages along its request stream at its request spacing.
double UpdateDrawNs(const Air& air, const Workload& w,
                    const LayerContext& ctx) {
  const double rate =
      w.updates.update_rate > 0.0 ? w.updates.update_rate : 0.05;
  auto tracker = Must(
      bcast::UpdateTracker::Make(
          static_cast<bcast::PageId>(air.schedule.layout.TotalPages()), rate,
          w.updates.update_theta, bcast::Rng(31)),
      "UpdateTracker::Make");
  const std::vector<bcast::PageId> pages = air.PhysicalPages(4096);
  double now = 0.0;
  uint64_t k = 0;
  std::vector<double> per_update;
  for (int rep = 0; rep < 7; ++rep) {
    const uint64_t before = tracker.updates_generated();
    const auto start = Clock::now();
    double acc = 0.0;
    for (int i = 0; i < 1 << 14; ++i) {
      now += ctx.request_gap_bu;
      acc += tracker.LastUpdateBefore(pages[k++ & 4095], now);
    }
    const double ns = NsSince(start);
    g_sink = g_sink + static_cast<uint64_t>(acc > 0.0);
    const uint64_t drawn = tracker.updates_generated() - before;
    if (drawn > 0) per_update.push_back(ns / static_cast<double>(drawn));
  }
  return Median(per_update);
}

// The pull server's queue at the workload's mean depth: an Add that merges
// into a queued page, and a PopNext (timed with the Add that requeues the
// popped page, less two merging Adds).
void PullQueueNs(const LayerContext& ctx, double* enqueue_ns,
                 double* service_ns) {
  const uint64_t depth = ctx.pull_depth > 0 ? ctx.pull_depth : 1;
  bcast::pull::RequestQueue queue(bcast::pull::PullScheduler::kFcfs);
  bcast::Rng rng(29);
  double now = 0.0;
  for (uint64_t p = 0; p < depth; ++p) queue.Add(p, now);
  std::vector<bcast::PageId> pages(4096);
  for (bcast::PageId& p : pages) p = rng.NextBounded(depth);
  uint64_t k = 0;
  const uint64_t ops =
      std::clamp<uint64_t>((uint64_t{1} << 24) / depth, 1, uint64_t{1} << 18);
  *enqueue_ns = NsPerOp(ops, 7, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) queue.Add(pages[k++ & 4095], now);
  });
  const double pair = NsPerOp(ops, 7, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      now += 1.0;
      const auto next = queue.PopNext(now);
      queue.Add(next->page, now);
    }
  });
  *service_ns = std::max(0.0, pair - 2.0 * *enqueue_ns);
}

// One listened transmission through a lossy receiver's accounting. Faults
// use the hybrid workload's 5% loss wherever a workload has none.
double ReceiveNs(const Air& air) {
  bcast::fault::FaultParams params = air.params.fault;
  if (params.loss <= 0.0) params.loss = 0.05;
  auto receiver = bcast::fault::MakeReceiver(
      params, 0, static_cast<double>(air.schedule.program.period()));
  double t = 0.0;
  receiver->BeginWait(7, t, t + 1.0, 2.0);
  return NsPerOp(1 << 20, 7, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      if (receiver->Attempt(7, t + 1.0)) {
        receiver->EndWait(t + 1.0);
        receiver->BeginWait(7, t, t + 1.0, 2.0);
      }
      t += 1.0;
    }
  });
}

// An epoch rebuild as the controller does it: the hybrid program at the
// workload's pull slots (2 where it has none) relabelled by the seats.
double RebuildMs(const Air& air) {
  const uint64_t slots =
      air.params.pull.pull_slots > 0 ? air.params.pull.pull_slots : 2;
  const bcast::adapt::PromotionMap seats(air.schedule.layout);
  const double ns = NsPerOp(2, 9, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      auto hybrid =
          Must(bcast::pull::GenerateHybridProgram(air.schedule.layout, slots),
               "GenerateHybridProgram");
      auto program = Must(seats.Apply(hybrid.program), "Apply");
      g_sink = g_sink + program.period();
    }
  });
  return 1e-6 * ns;
}

double HistogramNs(double mean) {
  bcast::Rng rng(23);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.NextExponential(mean > 0.0 ? mean : 1.0);
  bcast::obs::LogHistogram hist;
  uint64_t k = 0;
  const double ns = NsPerOp(1 << 20, 7, [&](uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) hist.Add(values[k++ & 4095]);
  });
  g_sink = g_sink + hist.count();
  return ns;
}

}  // namespace

UnitCosts MeasureUnitCosts(const Workload& w, const LayerContext& ctx) {
  const Air air(w);
  UnitCosts c;
  c.push_pop_ns = PushPopNs(ctx);
  c.build_schedule_ms = 1e-6 * NsPerOp(4, 9, [&](uint64_t n) {
                          for (uint64_t i = 0; i < n; ++i) {
                            auto s = Must(bcast::BuildSchedule(air.params),
                                          "BuildSchedule");
                            g_sink = g_sink + s.program.period();
                          }
                        });
  c.next_arrival_ns = NextArrivalNs(air);
  c.next_page_ns = NextPageNs(air);
  c.mapping_build_us =
      1e-3 * NsPerOp(16, 15, [&](uint64_t n) {
        bcast::NoiseModel noise;
        noise.coin_pages = air.params.access_range;
        for (uint64_t i = 0; i < n; ++i) {
          auto m = Must(bcast::Mapping::Make(air.schedule.layout, 0, noise,
                                             bcast::Rng(i)),
                        "Mapping::Make");
          g_sink = g_sink + m.ToPhysical(0);
        }
      });
  CacheNs(air, ctx.depth, &c.lookup_ns, &c.insert_ns);
  c.cache_bytes = CacheBytes(air);
  WorldBuild(air, &c.world_build_us, &c.client_bytes);
  c.spsc_ns = SpscNs();
  c.update_draw_ns = UpdateDrawNs(air, w, ctx);
  PullQueueNs(ctx, &c.enqueue_ns, &c.service_ns);
  c.receive_ns = ReceiveNs(air);
  c.rebuild_ms = RebuildMs(air);
  c.histogram_ns = HistogramNs(ctx.mean_response_bu);
  return c;
}

std::vector<Term> Reconcile(const UnitCosts& c, const Batch& b) {
  auto term = [](const char* layer, uint64_t count, double unit_ns,
                 bool serial = false) {
    const double n = static_cast<double>(count);
    return Term{layer, n, n * unit_ns * 1e-9, serial};
  };
  return {
      term("des", b.events, c.push_pop_ns),
      term("broadcast", b.slot_events, c.next_arrival_ns),
      term("client", b.requests_total, c.next_page_ns),
      term("cache.lookup", b.requests_total, c.lookup_ns),
      term("cache.insert", b.fetches, c.insert_ns),
      term("core.updates", b.updates_generated, c.update_draw_ns),
      term("obs", b.histogram_records, c.histogram_ns),
      term("fault", b.faults.attempts, c.receive_ns),
      term("pop.spsc", b.uplink_sends, c.spsc_ns),
      term("pop.barrier", b.rounds, c.round_us * 1e3, true),
      term("pull.enqueue", b.uplink_enqueued, c.enqueue_ns, true),
      term("pull.service", b.pull_serviced, c.service_ns, true),
      term("adapt", b.adapt_rebuilds, c.rebuild_ms * 1e6, true),
  };
}

}  // namespace perfbench
