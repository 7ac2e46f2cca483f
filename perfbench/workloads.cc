#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/simulator.h"
#include "obs/stopwatch.h"
#include "pop/engine.h"
#include "pop/pop_params.h"

namespace perfbench {
namespace {

using bcast::des::EventKind;

// User plus system seconds of every thread of the process.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over 64-bit words: the identity of a batch's simulated outcome.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(const bcast::ClientMetrics& m) {
    Add(m.requests());
    Add(m.cache_hits());
    Add(m.mean_response_time());
    Add(m.response_histogram().Quantile(0.99));
    Add(m.tuning_time().mean());
    for (uint64_t n : m.served_per_disk()) Add(n);
  }
  void Add(const bcast::fault::FaultStats& f) {
    for (uint64_t n : {f.attempts, f.delivered, f.lost, f.retries,
                       f.deadline_expiries, f.loss_delayed_fetches}) {
      Add(n);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The paper geometry every workload shares (Tables 2-4): disks
// 500/2000/2500, Delta 2, the delta optimizer, cache 500, AccessRange
// 1000 over 50-page Zipf(0.95) regions, think time 2.
bcast::SimParams PaperGeometry() {
  bcast::SimParams p;
  p.disk_sizes = {500, 2000, 2500};
  p.delta = 2;
  p.optimizer = "delta";
  p.cache_size = 500;
  p.access_range = 1000;
  p.region_size = 50;
  p.theta = 0.95;
  p.think_time = 2.0;
  p.des_queue = bcast::des::QueueBackend::kAuto;
  return p;
}

}  // namespace

bcast::MultiClientParams PopulationParams(const bcast::SimParams& p,
                                          uint64_t clients) {
  bcast::MultiClientParams mp;
  mp.disk_sizes = p.disk_sizes;
  mp.delta = p.delta;
  mp.optimizer = p.optimizer;
  mp.measured_requests = p.measured_requests;
  mp.seed = p.seed;
  mp.des_queue = p.des_queue;
  mp.fault = p.fault;
  mp.pull = p.pull;
  mp.adapt = p.adapt;
  const uint64_t db = mp.ServerDbSize();
  for (uint64_t c = 0; c < clients; ++c) {
    bcast::ClientSpec spec;
    spec.access_range = p.access_range;
    spec.theta = p.theta;
    spec.region_size = p.region_size;
    spec.cache_size = p.cache_size;
    spec.policy = p.policy;
    spec.think_time = p.think_time;
    spec.interest_shift = db * c / clients;
    mp.clients.push_back(spec);
  }
  return mp;
}

namespace {

uint64_t Dispatches(const bcast::des::DesProfile& profile, EventKind kind) {
  return profile.kinds[static_cast<size_t>(kind)].dispatches;
}

void CheckMetrics(const bcast::ClientMetrics& m, Batch* b) {
  if (m.cache_hits() > m.requests()) {
    b->failures.push_back("cache hits exceed probes");
  }
  uint64_t served = 0;
  for (uint64_t n : m.served_per_disk()) served += n;
  if (served != m.misses()) {
    b->failures.push_back("per-disk service does not add up to the misses");
  }
  if (m.requests() != b->expected_requests) {
    b->failures.push_back("measured requests != clients x requests");
  }
  b->mean_bu = m.mean_response_time();
  b->p99_bu = m.response_histogram().Quantile(0.99);
}

void RunSingle(const Workload& w, const BatchOptions& o, Batch* b) {
  bcast::SimParams p = BatchParams(w, o.subseed);
  if (o.setup_probe) p.measured_requests = p.max_warmup_requests = 1;
  bcast::SimObservers observers;
  observers.profile_des = o.profile_des;
  bcast::obs::Stopwatch watch;
  auto r = bcast::RunSimulation(p, observers);
  const double total = watch.ElapsedSeconds();
  if (!r.ok()) Die(r.status().ToString());
  b->setup_s = r->timings.build_program_seconds + r->timings.setup_seconds;
  b->wall_s = total - b->setup_s;
  b->expected_requests = p.measured_requests;
  b->metrics = r->metrics;
  CheckMetrics(b->metrics, b);
  b->backend = r->resolved_queue;
  b->end_time = r->end_time;
  b->events = r->events_dispatched;
  b->measured = r->metrics.requests();
  b->requests_total = r->metrics.requests() + r->warmup_requests;
  b->histogram_records = 2 * b->measured;  // response + tuning
  if (r->profile_active) {
    b->slot_events = Dispatches(r->profile, EventKind::kSlot);
    b->fetches = b->slot_events;
  }
  if (r->faults_active) b->faults = r->faults;

  Digest d;
  d.Add(r->metrics);
  d.Add(r->warmup_requests);
  d.Add(r->end_time);
  d.Add(r->events_dispatched);
  b->digest = d.value();
}

void RunPopulation(const Workload& w, const BatchOptions& o, Batch* b) {
  const bcast::SimParams p = BatchParams(w, o.subseed);
  const bcast::MultiClientParams mp = PopulationParams(p, w.clients);
  bcast::SimObservers observers;
  observers.profile_des = o.profile_des;
  bcast::pop::PopParams pop;
  pop.clients = w.clients;
  pop.shards = o.shards;
  pop.force_engine = true;
  bcast::obs::Stopwatch watch;
  auto r = o.shards == 0
               ? bcast::RunMultiClientSimulation(mp, observers)
               : bcast::pop::RunPopulationSimulation(mp, pop, observers);
  const double total = watch.ElapsedSeconds();
  if (!r.ok()) Die(r.status().ToString());
  b->setup_s = r->timings.build_program_seconds + r->timings.setup_seconds;
  b->wall_s = total - b->setup_s;
  b->expected_requests = w.clients * p.measured_requests;
  b->metrics = r->aggregate;
  CheckMetrics(b->metrics, b);
  b->backend = r->resolved_queue;
  b->end_time = r->end_time;
  b->events = r->events_dispatched;
  b->measured = r->aggregate.requests();
  b->histogram_records = 2 * b->measured;  // response + tuning
  // Population reports carry no warm-up count; every request of a
  // closed-loop client ends in exactly one think-time delay event.
  if (r->profile_active) {
    b->requests_total = Dispatches(r->profile, EventKind::kDelay);
    b->slot_events = Dispatches(r->profile, EventKind::kSlot);
    b->fetches = b->slot_events;
  }
  if (r->faults_active) b->faults = r->faults;
  if (r->pull_active) {
    const bcast::pull::PullStats& ps = r->pull_stats;
    b->first_requests = ps.requests_attempted;
    b->re_requests = ps.re_requests;
    b->uplink_sends = ps.requests_attempted + ps.re_requests;
    b->uplink_dropped = ps.uplink_dropped;
    b->uplink_enqueued = ps.uplink_accepted - ps.uplink_lost;
    b->pull_serviced = ps.serviced_pages;
    b->pull_queue_depth = ps.queue_depth.mean();
    b->pull_opportunities = ps.pull_opportunities;
    b->fetches = ps.push_deliveries + ps.pull_deliveries;
  }
  if (r->adapt_active) {
    b->adapt_epochs = r->adapt_stats.epochs;
    b->adapt_rebuilds = r->adapt_stats.rebuilds;
  }
  if (o.shards > 0) {
    b->rounds = r->pull_active || r->adapt_active
                    ? b->pull_opportunities + b->adapt_epochs
                    : 1;
  }

  Digest d;
  d.Add(r->aggregate);
  for (const bcast::ClientMetrics& m : r->per_client) {
    d.Add(m.requests());
    d.Add(m.cache_hits());
    d.Add(m.mean_response_time());
  }
  d.Add(r->end_time);
  d.Add(r->events_dispatched);
  d.Add(r->faults);
  for (uint64_t n : {b->uplink_sends, b->uplink_dropped, b->pull_serviced,
                     b->pull_opportunities, b->adapt_epochs,
                     b->adapt_rebuilds}) {
    d.Add(n);
  }
  b->digest = d.value();
}

void RunUpdates(const Workload& w, const BatchOptions& o, Batch* b) {
  bcast::SimParams p = BatchParams(w, o.subseed);
  if (o.setup_probe) p.measured_requests = p.max_warmup_requests = 1;
  bcast::obs::MetricsRegistry registry;
  bcast::obs::Stopwatch watch;
  auto r = bcast::RunUpdateSimulation(p, w.updates, &registry);
  const double total = watch.ElapsedSeconds();
  if (!r.ok()) Die(r.status().ToString());
  // The updates runner times only its event loop; everything before the
  // first event (program, mapping, update clocks, cache) is set-up.
  b->wall_s = r->wall_seconds;
  b->setup_s = total - r->wall_seconds;
  b->expected_requests = p.measured_requests;
  const uint64_t fetched = r->invalidation_refetches + r->cold_misses;
  if (r->fresh_hits + r->stale_hits + fetched != r->requests) {
    b->failures.push_back("updates books do not add up to the requests");
  }
  if (r->requests != b->expected_requests) {
    b->failures.push_back("measured requests != requested");
  }
  b->mean_bu = r->mean_response_time;
  b->p99_bu = r->response.p99;
  b->backend = bcast::des::ResolveQueueBackend(p.des_queue, 1);
  b->events = r->events_dispatched;
  b->measured = r->requests;
  b->stale_hits = r->stale_hits;
  b->updates_generated = registry.GetCounter("updates/generated")->value();
  b->refetches = r->invalidation_refetches;
  // Events are one process start, one think-time delay per request and
  // one slot arrival per fetch. The updates runner reports no warm-up
  // count; its warm-up events (<0.3% of the total here) are split evenly
  // between requests and fetches, since warm-up requests mostly miss.
  const uint64_t warm = r->events_dispatched - 1 - r->requests - fetched;
  b->requests_total = r->requests + warm / 2;
  b->fetches = fetched + (warm - warm / 2);
  b->slot_events = b->fetches;
  b->histogram_records = r->requests;
  b->hits = r->fresh_hits + r->stale_hits;

  Digest d;
  for (uint64_t n : {r->requests, r->fresh_hits, r->stale_hits,
                     r->invalidation_refetches, r->cold_misses,
                     r->events_dispatched}) {
    d.Add(n);
  }
  d.Add(r->mean_response_time);
  d.Add(r->response.p99);
  b->digest = d.value();
}

}  // namespace

bcast::SimParams BatchParams(const Workload& w, uint64_t subseed) {
  bcast::SimParams p = w.base;
  p.seed = w.base.seed + subseed;
  p.fault.fault_seed = SplitMix(p.seed);
  return p;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return 0.5 * (upper + *std::max_element(values.begin(),
                                          values.begin() + mid));
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.base = PaperGeometry();
  w.base.seed = SplitMix(seed);
  if (name == "paper_single") {
    w.why = "the paper's one-client LIX experiment: all time on the "
            "per-request hot path (shallow DES, NextArrival, LIX, Zipf)";
    w.kind = Kind::kSingle;
    w.base.policy = bcast::PolicyKind::kLix;
    w.base.measured_requests = 10000;
    w.subseeds = 64;
  } else if (name == "pop_uncoupled") {
    w.why = "16-client barrier-free engine round (K=1): per-client world "
            "set-up and memory, calendar DES, LRU probes across clients";
    w.kind = Kind::kPopulation;
    w.base.policy = bcast::PolicyKind::kLru;
    // 30 measured requests a client, so the 16 seeds pool 7680 responses.
    w.base.measured_requests = 30;
    // 16 clients hold about 2 MB, within one core's L2. With 250 (32 MB,
    // in the host's shared L3) the fastest batch moved by up to 80% with
    // other tenants' load; one shard, because a K=2 batch needs two
    // undisturbed vCPUs at once (README.md, "Why minima").
    w.clients = 16;
    w.shards = 1;
    w.subseeds = 16;
  } else if (name == "pop_hybrid") {
    w.why = "25-client coupled engine at K=2: barrier rounds, SPSC uplink "
            "drains, saturated pull queue, loss retries and adaptive epoch "
            "reseats";
    w.kind = Kind::kPopulation;
    w.base.policy = bcast::PolicyKind::kLru;
    w.base.measured_requests = 20;
    w.base.fault.loss = 0.05;
    w.base.pull.pull_slots = 2;
    w.base.adapt.epoch_cycles = 4;
    w.clients = 25;
    w.shards = 2;
    w.subseeds = 16;
  } else if (name == "updates_invalidate") {
    w.why = "volatile data through the updates runner's own loop: the "
            "same cache serves invalidations and refetches";
    w.kind = Kind::kUpdates;
    w.base.policy = bcast::PolicyKind::kLru;
    w.base.measured_requests = 5000;
    w.subseeds = 64;
    w.updates.update_rate = 0.05;
    w.updates.update_theta = 0.95;
    w.updates.action = bcast::ConsistencyAction::kInvalidate;
  } else {
    return false;
  }
  if (const bcast::Status st = w.base.Validate(); !st.ok()) {
    Die(name + ": " + st.ToString());
  }
  *out = std::move(w);
  return true;
}

Batch RunBatch(const Workload& w, const BatchOptions& options) {
  Batch b;
  const double cpu0 = CpuSeconds();
  switch (w.kind) {
    case Kind::kSingle:
      RunSingle(w, options, &b);
      break;
    case Kind::kPopulation:
      RunPopulation(w, options, &b);
      break;
    case Kind::kUpdates:
      RunUpdates(w, options, &b);
      break;
  }
  // Set-up included: the library times set-up in wall seconds only, so the
  // CPU seconds of the event loop alone cannot be told apart.
  b.cpu_s = CpuSeconds() - cpu0;
  if (w.kind != Kind::kUpdates) b.hits = b.metrics.cache_hits();
  return b;
}

}  // namespace perfbench
