// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it repeats the workload's fixed batch for about <s>
// seconds and prints the end-to-end metrics (host times of the fastest
// batch, see README.md "Why minima").
// With --trace 1 it runs the workload with the library's DES profiling
// on and off, at K=1 and K=2 shards and on the legacy population path,
// times each layer's unit cost, and prints the per-layer metrics and the
// reconciliation. Every batch's outputs are checked. The last line of
// standard output is the result object; see README.md.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "build_info.h"
#include "layers.h"
#include "obs/stopwatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up probes after each batch of a single-client workload: its set-up
// is under a millisecond, so one reading is mostly scheduler jitter; the
// fastest of many, spread over the run, is the set-up's cost.
constexpr int kSetupProbesPerBatch = 1;

// Repeats of each batch kind in a traced run; the fastest of each is used.
constexpr int kTracedRepeats = 12;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// A span of the benchmark's own phases, kept in memory and printed at the
// end of a traced run.
struct Span {
  std::string name;
  double start_s;
  double end_s;
};

class Spans {
 public:
  template <typename F>
  auto Record(const std::string& name, F&& body) {
    const double start = clock_.ElapsedSeconds();
    auto result = body();
    spans_.push_back({name, start, clock_.ElapsedSeconds()});
    return result;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bcast::obs::Stopwatch clock_;
  std::vector<Span> spans_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// The process's peak resident set, from /proc: getrusage's ru_maxrss would
// start from the launching process's resident set, which survives exec.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  if (kib <= 0.0) Die("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

double Min(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Outcome bookkeeping shared by both modes.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, uint64_t> digest_of;

  // Counts \p b, and checks that it repeats the digest of the first batch
  // run under the same \p key (a seed on one runner).
  void Add(const Batch& b, const std::string& key) {
    ++attempted;
    std::vector<std::string> failures = b.failures;
    auto [it, fresh] = digest_of.emplace(key, b.digest);
    if (!fresh && it->second != b.digest) {
      failures.push_back("simulated metrics differ between repeats");
    }
    if (!failures.empty()) {
      ++failed;
      correct = false;
      for (const std::string& f : failures) {
        std::fprintf(stderr, "perfbench: %s: %s\n", key.c_str(), f.c_str());
      }
    }
  }
  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
};

void PrintProvenance(const Workload& w, uint64_t seed, const Batch& b) {
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"why\": %s, \"seed\": %" PRIu64
      ", \"library_seed\": %" PRIu64 ", \"seeds_pooled\": %" PRIu64
      ", \"nproc\": %ld, \"build_type\": %s, \"cxx_flags\": %s"
      ", \"des_backend\": %s, \"shards\": %" PRIu64 ", \"clients\": %" PRIu64
      ", \"measured_requests_per_client\": %" PRIu64 "}}\n",
      JsonString(w.name).c_str(), JsonString(w.why).c_str(), seed,
      w.base.seed, w.subseeds, sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_FLAGS).c_str(),
      JsonString(bcast::des::QueueBackendName(b.backend)).c_str(),
      w.kind == Kind::kPopulation ? w.shards : 0, w.clients,
      w.base.measured_requests);
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.correct && tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// --trace 0: the end-to-end metrics.
int RunTimed(const Workload& w, uint64_t seed, double seconds) {
  bcast::obs::Stopwatch clock;
  Tally tally;
  std::vector<double> walls, cpus, setups;
  std::vector<double> wall_per_event, cpu_per_event;
  std::vector<Batch> firsts;  // the first batch of each seed
  // The seeds run in turn, every one at least twice, so every run checks
  // that the simulated metrics repeat; then batches continue while the
  // next one fits in the run.
  uint64_t count = 0;
  double last = 0.0;
  double peak_rss_mb = 0.0;
  while (count < 2 * w.subseeds ||
         clock.ElapsedSeconds() + last <= seconds) {
    const double start = clock.ElapsedSeconds();
    BatchOptions o;
    o.subseed = count % w.subseeds;
    o.shards = w.shards;
    const Batch b = RunBatch(w, o);
    ++count;
    const std::string seed_key = "seed " + std::to_string(o.subseed);
    tally.Add(b, seed_key);
    std::fprintf(stderr,
                 "perfbench: batch %" PRIu64 " seed %" PRIu64
                 ": wall %.4f s, cpu %.4f s, setup %.4f s, %" PRIu64
                 " events\n",
                 count, o.subseed, b.wall_s, b.cpu_s, b.setup_s, b.events);
    walls.push_back(b.wall_s);
    cpus.push_back(b.cpu_s);
    wall_per_event.push_back(b.wall_s / static_cast<double>(b.events));
    cpu_per_event.push_back(b.cpu_s / static_cast<double>(b.events));
    if (w.kind == Kind::kPopulation) {
      setups.push_back(b.setup_s);
    } else {
      for (int i = 0; i < kSetupProbesPerBatch; ++i) {
        BatchOptions probe = o;
        probe.setup_probe = true;
        const Batch p = RunBatch(w, probe);
        setups.push_back(p.setup_s);
        tally.Add(p, "set-up probe, " + seed_key);
      }
    }
    if (firsts.size() < w.subseeds) firsts.push_back(b);
    // The peak resident set once every seed has run twice: later growth is
    // this loop's own per-batch records, which grow with the batches a run
    // fits.
    if (count == 2 * w.subseeds) peak_rss_mb = PeakRssMb();
    last = clock.ElapsedSeconds() - start;
  }

  // Simulated metrics pool the first batch of every seed: merged histograms
  // where the runner returns them, else the mean over seeds.
  bcast::ClientMetrics pooled = firsts[0].metrics;
  double mean_bu = 0.0, p99_bu = 0.0, mean_events = 0.0;
  for (uint64_t s = 0; s < w.subseeds; ++s) {
    if (s > 0) pooled.Merge(firsts[s].metrics);
    mean_events +=
        static_cast<double>(firsts[s].events) / static_cast<double>(w.subseeds);
    mean_bu += firsts[s].mean_bu / static_cast<double>(w.subseeds);
    p99_bu += firsts[s].p99_bu / static_cast<double>(w.subseeds);
  }
  if (w.kind != Kind::kUpdates) {
    mean_bu = pooled.mean_response_time();
    p99_bu = pooled.response_histogram().Quantile(0.99);
  }
  PrintProvenance(w, seed, firsts[0]);
  std::printf(
      "{\"batches\": {\"count\": %" PRIu64 ", \"setups\": %zu, "
      "\"seconds\": %s, \"wall_s_median\": %s, \"cpu_s_median\": %s, "
      "\"setup_s_median\": %s}}\n",
      count, setups.size(), Num(clock.ElapsedSeconds()).c_str(),
      Num(Median(walls)).c_str(), Num(Median(cpus)).c_str(),
      Num(Median(setups)).c_str());
  // Host times are the fastest batch of the run: other tenants of a shared
  // machine only ever slow a batch down, by up to 2x for seconds at a time,
  // so a median over a run mostly measures them; the fastest repeat
  // measures the program. Seeds differ in simulated work (paper_single's
  // by up to 23% in events), so the fastest time per event is scaled to the
  // seeds' mean events, a batch of average work (README.md, "Why minima").
  // cpu_s is the CPU time of that same batch: the fastest CPU reading on
  // its own can be one that missed a just-joined shard thread's time.
  const size_t fastest = static_cast<size_t>(
      std::min_element(wall_per_event.begin(), wall_per_event.end()) -
      wall_per_event.begin());
  PrintResult(tally, {{"wall_s", wall_per_event[fastest] * mean_events, "s"},
                      {"cpu_s", cpu_per_event[fastest] * mean_events, "s"},
                      {"setup_s", Min(setups), "s"},
                      {"peak_rss_mb", peak_rss_mb, "MB"},
                      {"mean_response_bu", mean_bu, "bu"},
                      {"p99_response_bu", p99_bu, "bu"}});
  return 0;
}

// --trace 1: the per-layer metrics and the reconciliation.
int RunTraced(const Workload& w, uint64_t seed) {
  Tally tally;
  Spans spans;
  BatchOptions plain;
  plain.shards = w.shards;
  BatchOptions profiled = plain;
  profiled.profile_des = true;

  // After one batch that pays first-touch costs, alternate untraced and
  // traced batches; their fastest wall times give the tracing overhead, and
  // every one must reproduce the same outcome.
  auto run = [&](const char* span, const BatchOptions& o) {
    return spans.Record(span, [&] { return RunBatch(w, o); });
  };
  tally.Add(run("batch_warmup", plain), "seed 0");
  std::vector<double> plain_walls, traced_walls;
  Batch traced;
  for (int i = 0; i < kTracedRepeats; ++i) {
    const Batch a = run("batch_untraced", plain);
    tally.Add(a, "seed 0");
    plain_walls.push_back(a.wall_s);
    traced = run("batch_traced", profiled);
    tally.Add(traced, "seed 0");
    traced_walls.push_back(traced.wall_s);
  }
  const double wall = Min(plain_walls);
  const uint64_t threads = w.kind == Kind::kPopulation ? w.shards : 1;

  double scaling_k2 = 0.0, engine_overhead = 0.0, round_us = 0.0;
  if (w.kind == Kind::kPopulation) {
    // Shard invariance as a benchmark check: the other one of K=1 and K=2
    // must reproduce the workload's digest. The legacy runner prices the
    // engine's own overhead.
    BatchOptions other = plain;
    other.shards = w.shards == 1 ? 2 : 1;
    BatchOptions legacy = plain;
    legacy.shards = 0;
    const std::string other_k = "K=" + std::to_string(other.shards);
    std::vector<double> other_walls, legacy_walls;
    for (int i = 0; i < kTracedRepeats; ++i) {
      const Batch b = run(other.shards == 1 ? "batch_k1" : "batch_k2", other);
      tally.Add(b, "seed 0, " + other_k);
      if (b.digest != traced.digest) {
        tally.Fail("K=1 and K=2 simulated statistics differ");
      }
      other_walls.push_back(b.wall_s);
      const Batch old = run("batch_legacy", legacy);
      tally.Add(old, "seed 0, legacy runner");
      legacy_walls.push_back(old.wall_s);
    }
    const double k1_wall = w.shards == 1 ? wall : Min(other_walls);
    const double k2_wall = w.shards == 1 ? Min(other_walls) : wall;
    scaling_k2 = k1_wall / k2_wall;
    engine_overhead = k1_wall / Min(legacy_walls) - 1.0;
    // What the engine adds over the legacy runner on this very batch, per
    // barrier round: hand-offs, drains and replay, less what the shards
    // gain by running in parallel. Zero where the parallel gain is larger.
    if (traced.rounds > 1) {
      round_us = 1e6 * std::max(0.0, wall - Min(legacy_walls)) /
                 static_cast<double>(traced.rounds);
    }
  }

  // Each closed-loop client holds one pending event, so a shard's depth is
  // its client count, and by Little's law an event stays pending for depth
  // x simulated time / the shard's events.
  LayerContext ctx;
  ctx.depth = (w.clients + threads - 1) / threads;
  ctx.backend = traced.backend;
  ctx.mean_pending_bu = static_cast<double>(ctx.depth) * traced.end_time *
                        static_cast<double>(threads) /
                        static_cast<double>(traced.events);
  ctx.mean_response_bu = traced.mean_bu;
  ctx.pull_depth =
      static_cast<uint64_t>(std::llround(traced.pull_queue_depth));
  ctx.request_gap_bu = traced.mean_bu + w.base.think_time;
  // The updates runner reports no simulated end time.
  if (w.kind == Kind::kUpdates) ctx.mean_pending_bu = ctx.request_gap_bu;
  UnitCosts c =
      spans.Record("unit_costs", [&] { return MeasureUnitCosts(w, ctx); });
  c.round_us = round_us;
  const std::vector<Term> terms = Reconcile(c, traced);
  double explained = 0.0;
  for (const Term& t : terms) explained += WallSeconds(t, threads);
  const double residual = 1.0 - explained / wall;

  // The reconciliation itself, each layer's share of the untraced wall
  // time, printed for reading beside the metrics.
  std::string rec = "{\"reconciliation\": {\"wall_s\": " + Num(wall) +
                    ", \"threads\": " + std::to_string(threads) +
                    ", \"terms\": [";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) rec += ", ";
    rec += "{\"layer\": " + JsonString(terms[i].layer) +
           ", \"count\": " + Num(terms[i].count) +
           ", \"seconds\": " + Num(terms[i].seconds) +
           ", \"serial\": " + (terms[i].serial ? "true" : "false") +
           ", \"wall_share\": " +
           Num(WallSeconds(terms[i], threads) / wall) + "}";
  }
  rec += "], \"residual_frac\": " + Num(residual) + "}}";
  std::printf("%s\n", rec.c_str());
  std::string sp = "{\"spans\": [";
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    if (i > 0) sp += ", ";
    sp += "{\"name\": " + JsonString(s.name) + ", \"start_s\": " +
          Num(s.start_s) + ", \"end_s\": " + Num(s.end_s) + "}";
  }
  std::printf("%s]}\n", sp.c_str());
  PrintProvenance(w, seed, traced);

  const double fetches = static_cast<double>(traced.fetches);
  const uint64_t update_requests =
      w.kind == Kind::kUpdates ? traced.measured : 0;
  PrintResult(
      tally,
      {
          {"des.events", static_cast<double>(traced.events), "count"},
          {"des.ns_per_event",
           1e9 * wall * static_cast<double>(threads) /
               static_cast<double>(traced.events),
           "ns"},
          {"des.push_pop_ns", c.push_pop_ns, "ns"},
          {"broadcast.build_schedule_ms", c.build_schedule_ms, "ms"},
          {"broadcast.next_arrival_ns", c.next_arrival_ns, "ns"},
          {"client.next_page_ns", c.next_page_ns, "ns"},
          {"client.mapping_build_us", c.mapping_build_us, "us"},
          {"cache.lookup_ns", c.lookup_ns, "ns"},
          {"cache.insert_ns", c.insert_ns, "ns"},
          {"cache.hit_rate", Ratio(traced.hits, traced.measured), "ratio"},
          {"cache.bytes_per_instance", c.cache_bytes, "B"},
          {"core.world_build_us", c.world_build_us, "us"},
          {"core.bytes_per_client", c.client_bytes, "B"},
          {"core.update_draw_ns", c.update_draw_ns, "ns"},
          {"core.updates_refetch_frac",
           Ratio(traced.refetches, update_requests), "ratio"},
          {"core.updates_stale_frac",
           Ratio(traced.stale_hits, update_requests), "ratio"},
          {"pop.scaling_k2", scaling_k2, "ratio"},
          {"pop.engine_overhead_frac", engine_overhead, "ratio"},
          {"pop.spsc_push_pop_ns", c.spsc_ns, "ns"},
          {"pop.rounds", static_cast<double>(traced.rounds), "count"},
          {"pop.barrier_round_us", c.round_us, "us"},
          {"pull.queue_depth", traced.pull_queue_depth, "count"},
          {"pull.enqueue_ns", c.enqueue_ns, "ns"},
          {"pull.service_ns", c.service_ns, "ns"},
          {"pull.serviced_frac",
           Ratio(traced.pull_serviced, traced.pull_opportunities), "ratio"},
          {"pull.uplink_drop_frac",
           Ratio(traced.uplink_dropped, traced.uplink_sends), "ratio"},
          {"pull.re_requests_per_request",
           Ratio(traced.re_requests, traced.first_requests), "ratio"},
          {"fault.receive_ns", c.receive_ns, "ns"},
          {"fault.delivery_ratio", traced.faults.delivery_ratio(), "ratio"},
          {"fault.retries_per_request",
           fetches > 0 ? static_cast<double>(traced.faults.retries) / fetches
                       : 0.0,
           "ratio"},
          {"adapt.epochs", static_cast<double>(traced.adapt_epochs), "count"},
          {"adapt.rebuild_ms", c.rebuild_ms, "ms"},
          {"obs.histogram_record_ns", c.histogram_ns, "ns"},
          {"obs.trace_overhead_frac", Min(traced_walls) / wall - 1.0,
           "ratio"},
          {"residual_frac", residual, "ratio"},
      });
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) return Usage("missing flag");
  }
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0' || args["seed"].empty()) return Usage("bad --seed");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) return Usage("bad --seconds");
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") return Usage("bad --trace");
  Workload w;
  if (!MakeWorkload(args["workload"], seed, &w)) {
    return Usage("unknown --workload");
  }
  return trace == "1" ? RunTraced(w, seed) : RunTimed(w, seed, seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
