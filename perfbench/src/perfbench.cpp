// ESAM benchmark program: one process runs one named workload against the
// public library API, checks its outputs, and prints the metrics as one
// JSON line (the last line of stdout).
//
//   esam_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --root DIR [--expect KEY=VALUE]... [--trace-out FILE]
//
// Workloads (see perfbench/README.md for why each exists):
//   fig8_cold     cold Fig. 8 flow: TrainedModel::create (no BNN cache) and
//                 five-cell streaming, one worker, batch_size 0.
//   serve_closed  InferenceServer (1RW+4R, 2 workers, max_batch 16) under a
//                 closed-loop client with a window of two full batches.
//   drift_adapt   EsamSystem from the checkpoint, 25 % drift, learn_online
//                 (update_interval 16, 2 workers, wta-stdp hidden rule).
//   fleet         FleetSimulator over 16 dies from the checkpoint, 2 workers.
//
// Every workload has a pinned reference repetition (repetition 0: canonical
// input order, recorded drift and fleet seeds) whose modelled results are
// reported and compared with the values recorded in perfbench/expected.json.
// Later repetitions run seed-derived variants of the same load (stream
// permutations, drift permutations, die populations), each checked against
// an oracle. Host times therefore depend on --seed; modelled metrics do not.
//
// Host time (what the simulator takes on this machine) and modelled time or
// energy (what the 3nm hardware would take) are always named apart: modelled
// metric names start with "model" or name a modelled quantity (cycles, pJ,
// modelled ns); everything measured in host seconds says "host" or "_s".
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, derived from spans this program records
// around each call into a layer's public functions (tracer.hpp). The traced
// run alternates traced and untraced repetitions; trace.overhead_frac is
// the ratio of their median wall times minus one.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "esam/core/esam.hpp"
#include "esam/fleet/fleet.hpp"
#include "esam/io/checkpoint.hpp"
#include "esam/serve/server.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/util/parse.hpp"
#include "esam/util/rng.hpp"
#include "tracer.hpp"

using namespace esam;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Pinned workload parameters. Changing any of them changes the benchmark.

/// Seed of the synthetic digits (ModelConfig's default; the checkpoint
/// fixture was trained on the split it generates).
constexpr std::uint64_t kDataSeed = 7;
/// Cold-flow BNN budget: a fixed reduction of the paper flow's 12000 x 18
/// epochs, so the whole cold set-up fits a benchmark run.
constexpr std::size_t kFig8Train = 2000;
constexpr std::size_t kFig8Test = 500;
constexpr std::size_t kFig8Epochs = 2;
/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kFig8SetupReps = 3;
constexpr std::size_t kDeployedSetupReps = 11;

constexpr std::size_t kServePool = 1024;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeMaxBatch = 16;
/// Closed-loop window: one full batch per worker, so batches dispatch full
/// and the deadline timer never cuts one.
constexpr std::size_t kServeWindow = kServeWorkers * kServeMaxBatch;

constexpr std::size_t kDriftPool = 512;
constexpr std::size_t kDriftEpochs = 2;
constexpr double kDriftFraction = 0.25;
constexpr std::uint64_t kDriftSeed = 2026;  // OnlineOptions default
constexpr std::size_t kDriftInterval = 16;
constexpr std::size_t kDriftWorkers = 2;
constexpr std::size_t kDriftEvalBatch = 32;

constexpr std::size_t kFleetPool = 2000;
constexpr std::size_t kFleetDevices = 16;
constexpr std::size_t kFleetWorkers = 2;
constexpr std::size_t kFleetShard = 500;
constexpr std::size_t kFleetEpochs = 2;
constexpr std::uint64_t kFleetSeed = 2026;  // DeviceModelConfig default

const char* const kCheckpointPath = "perfbench/data/model.esam";

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image: VmHWM from /proc/self/status.
/// (getrusage's ru_maxrss survives exec, so it would report the launching
/// process's peak whenever that was larger.)
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// CRC-32 digest over the raw bytes of appended values (io::crc32).
class Digest {
 public:
  template <class T>
  Digest& add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
    return *this;
  }
  Digest& add_str(const std::string& s) {
    bytes_.insert(bytes_.end(), s.begin(), s.end());
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x",
                  io::crc32(bytes_.data(), bytes_.size()));
    return buf;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// Content digest of a network (its weights, thresholds and offsets).
std::string network_digest(const nn::SnnNetwork& net) {
  return hex32(io::Checkpoint::from_network(net).content_crc());
}

/// Seed of variant repetition `rep` (>= 1) of a workload run with `seed`.
std::uint64_t variant_seed(std::uint64_t seed, std::size_t rep) {
  return util::splitmix64_mix(util::splitmix64_mix(seed) ^ rep);
}

/// Stream order of repetition `rep`: canonical for the reference
/// repetition, a seeded permutation for the variants.
std::vector<std::size_t> stream_order(std::size_t n, std::uint64_t seed,
                                      std::size_t rep) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (rep > 0) {
    util::Rng rng(variant_seed(seed, rep));
    rng.shuffle(order);
  }
  return order;
}

// ---------------------------------------------------------------------------
// Metric catalogues. Every run reports every metric of its mode; a per-layer
// metric of a layer the workload does not exercise reads 0.

/// Metric-name form of a cell ("1RW+4R" -> "1RW_4R": names allow no '+').
std::string cell_key(sram::CellKind c) {
  std::string k(sram::to_string(c));
  std::replace(k.begin(), k.end(), '+', '_');
  return k;
}

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs{
      {"setup_s", "s"},         {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},   {"accuracy", "fraction"},
      {"model_pj_per_inf", "pJ"},
  };
  return defs;
}

const char* const kLayers[] = {"bench", "core", "data",     "nn",   "io",
                               "arch",  "serve", "learning", "fleet"};

std::vector<MetricDef> build_layer_metrics() {
  std::vector<MetricDef> d{
      {"data.gen_s", "s"},
      {"data.spike_density", "fraction"},
      {"nn.train_s", "s"},
      {"nn.train_samples_per_s", "1/s"},
      {"nn.eval_s", "s"},
      {"nn.convert_s", "s"},
      {"nn.test_accuracy", "fraction"},
      {"io.ckpt_load_s", "s"},
      {"arch.deploy_s", "s"},
      {"arch.eval_s", "s"},
      {"arch.host_ns_per_inf", "ns"},
      {"arch.host_ns_per_cycle", "ns"},
      {"arch.model_minf_per_s", "MInf/s"},
  };
  for (sram::CellKind c : sram::kAllCellKinds) {
    d.push_back({"arch.cycles_per_inf." + cell_key(c), "cycles"});
  }
  for (sram::CellKind c : sram::kAllCellKinds) {
    d.push_back({"arch.pj_per_inf." + cell_key(c), "pJ"});
  }
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(util::EnergyCategory::kCount); ++i) {
    d.push_back({"arch.energy_pj." +
                     std::string(util::to_string(
                         static_cast<util::EnergyCategory>(i))),
                 "pJ"});
  }
  const std::vector<MetricDef> rest{
      {"fig8.speedup", "x"},
      {"fig8.speedup_err", "fraction"},
      {"fig8.energy_gain", "x"},
      {"fig8.energy_gain_err", "fraction"},
      {"serve.batches", "count"},
      {"serve.mean_batch", "count"},
      {"serve.full_dispatch_frac", "fraction"},
      {"serve.queue_wait_p50_us", "us"},
      {"serve.queue_wait_p99_us", "us"},
      {"serve.latency_p50_us", "us"},
      {"serve.latency_p99_us", "us"},
      {"serve.modeled_latency_ns", "ns"},
      {"learning.adapt_gain", "fraction"},
      {"learning.column_updates", "count"},
      {"learning.column_rmws", "count"},
      {"learning.rmw_per_update", "fraction"},
      {"learning.tile_updates.0", "count"},
      {"learning.tile_updates.1", "count"},
      {"learning.tile_updates.2", "count"},
      {"learning.tile_updates.3", "count"},
      {"learning.host_us_per_sample", "us"},
      {"learning.model_ns_per_update", "ns"},
      {"learning.pj_per_update", "pJ"},
      {"learning.weight_bits_changed", "count"},
      {"fleet.device_build_s", "s"},
      {"fleet.run_s", "s"},
      {"fleet.fault_cells", "count"},
      {"fleet.read_path_ns_p50", "ns"},
      {"fleet.functional_yield", "fraction"},
      {"fleet.timing_yield", "fraction"},
      {"proc.cpu_util", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  for (const char* layer : kLayers) {
    d.push_back({std::string("trace.self_frac.") + layer, "fraction"});
  }
  return d;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = build_layer_metrics();
  return defs;
}

// ---------------------------------------------------------------------------
// Run state.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
  std::string trace_out;
  std::map<std::string, std::string> expect;
};

struct Run {
  explicit Run(Args a) : args(std::move(a)), tracer(args.trace) {}

  Args args;
  Tracer tracer;
  std::map<std::string, double> values;  // metric name -> value
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void set(const std::string& name, double v) { values[name] = v; }

  /// Records a correctness problem; `ops` operations count as failed.
  void fail(const std::string& what, std::uint64_t ops) {
    problems.push_back(what);
    failed += ops;
  }

  /// Compares a reference-repetition value with its recorded expectation
  /// (absent expectations are reported, not failed, so new values can be
  /// recorded).
  bool check_expected(const std::string& key, const std::string& actual) {
    std::printf("  check %-28s %s", key.c_str(), actual.c_str());
    const auto it = args.expect.find(key);
    if (it == args.expect.end()) {
      std::printf("  (no recorded value)\n");
      return true;
    }
    const bool ok = it->second == actual;
    std::printf("  %s (recorded %s)\n", ok ? "ok" : "MISMATCH",
                it->second.c_str());
    if (!ok) problems.push_back(key + " " + actual + " != " + it->second);
    return ok;
  }

  [[nodiscard]] std::string path(const char* rel) const {
    return args.root + "/" + rel;
  }
};

/// Median of a repeated set-up; each call of `once` is one full set-up.
template <class F>
double timed_setup(Run& run, std::size_t reps, F&& once) {
  std::vector<double> walls;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    {
      auto s = run.tracer.scope("bench.setup");
      once(r);
    }
    walls.push_back(seconds_since(t0));
  }
  std::printf("setup: %zu reps, median %.4f s (min %.4f, max %.4f)\n", reps,
              median(walls), *std::min_element(walls.begin(), walls.end()),
              *std::max_element(walls.begin(), walls.end()));
  return median(walls);
}

struct TimedResult {
  std::vector<double> rep_wall;
  std::vector<double> rep_rate;  ///< ops per host second, per repetition
  std::vector<bool> rep_traced;
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double cpu_util = 0.0;
};

/// Runs repetitions until --seconds have passed (and at least `min_reps`).
/// `rep(r)` returns the operations it completed. In a traced run odd
/// repetitions are traced and even ones are not; the overhead comparison
/// leaves out repetition 0, the reference, which also warms the caches.
template <class F>
TimedResult timed_loop(Run& run, F&& rep) {
  const std::size_t min_reps = run.args.trace ? 3 : 2;
  TimedResult res;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < min_reps || seconds_since(t0) < run.args.seconds;
       ++r) {
    const bool traced = run.args.trace && r % 2 == 1;
    run.tracer.set_enabled(traced);
    const auto ts = Clock::now();
    std::uint64_t n = 0;
    {
      auto s = run.tracer.scope("bench.rep");
      n = rep(r);
    }
    const double w = seconds_since(ts);
    run.tracer.set_enabled(run.args.trace);
    res.rep_wall.push_back(w);
    res.rep_rate.push_back(static_cast<double>(n) / w);
    res.rep_traced.push_back(traced);
    res.ops += n;
  }
  res.wall_s = seconds_since(t0);
  res.cpu_util = (cpu_seconds() - cpu0) / res.wall_s;
  run.attempted += res.ops;
  std::printf("timed: %zu reps, %llu ops in %.3f s, cpu %.2f; rep rate "
              "[1/s] min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
              res.rep_wall.size(), static_cast<unsigned long long>(res.ops),
              res.wall_s, res.cpu_util, quantile(res.rep_rate, 0.0),
              quantile(res.rep_rate, 0.25), quantile(res.rep_rate, 0.5),
              quantile(res.rep_rate, 0.75), quantile(res.rep_rate, 1.0));
  return res;
}

/// Fills the metrics every workload derives from its timed loop. ops_per_s
/// is the 90th percentile of the per-repetition rates: on a shared host,
/// other tenants' cache and memory traffic slows single repetitions of the
/// same work by up to 2x at random, so the median moves with how much of a
/// run was disturbed while the fastest tenth tracks the program itself.
void report_timed(Run& run, const TimedResult& t) {
  run.set("ops_per_s", quantile(t.rep_rate, 0.9));
  run.set("proc.cpu_util", t.cpu_util);
  if (!run.args.trace) return;
  std::vector<double> on, off;
  for (std::size_t i = 1; i < t.rep_wall.size(); ++i) {
    (t.rep_traced[i] ? on : off).push_back(t.rep_wall[i]);
  }
  if (!on.empty() && !off.empty()) {
    run.set("trace.overhead_frac", median(on) / median(off) - 1.0);
  }
}

data::PreparedDataset make_test_pool(Run& run, std::size_t n) {
  auto s = run.tracer.scope("data.load_default_split");
  data::TrainTestSplit split = data::load_default_split(0, n, kDataSeed);
  if (split.test.source != "synthetic") {
    throw std::runtime_error("dataset source is '" + split.test.source +
                             "', not 'synthetic' (unset ESAM_MNIST_DIR)");
  }
  return std::move(split.test);
}

io::Checkpoint load_checkpoint(Run& run) {
  io::Checkpoint ckpt;
  {
    auto s = run.tracer.scope("io.checkpoint_load");
    ckpt = io::Checkpoint::load(run.path(kCheckpointPath));
  }
  const std::string crc = hex32(ckpt.content_crc());
  const auto it = run.args.expect.find("checkpoint_crc");
  if (it != run.args.expect.end() && it->second != crc) {
    throw std::runtime_error("checkpoint content CRC " + crc +
                             " != recorded " + it->second);
  }
  return ckpt;
}

/// Median of a tracer span's durations (0 when the span never ran).
double span_median(const Run& run, const char* name) {
  const std::vector<double> d = run.tracer.durations(name);
  return d.empty() ? 0.0 : median(d);
}

void set_ledger_breakdown(Run& run, const util::EnergyLedger& ledger,
                          double inferences) {
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(util::EnergyCategory::kCount); ++i) {
    const auto cat = static_cast<util::EnergyCategory>(i);
    run.set("arch.energy_pj." + std::string(util::to_string(cat)),
            util::in_picojoules(ledger.energy(cat)) / inferences);
  }
}

// ---------------------------------------------------------------------------
// fig8_cold

core::ModelConfig fig8_model_config() {
  core::ModelConfig mc;
  mc.n_train = kFig8Train;
  mc.n_test = kFig8Test;
  mc.data_seed = kDataSeed;
  mc.train.epochs = kFig8Epochs;
  mc.cache_path.clear();  // no BNN cache: read and write nothing
  return mc;
}

/// TrainedModel::create's public steps called one by one, so the traced run
/// can put a span on each layer. The result is checked equal to create()'s.
core::TrainedModel create_model_traced(Run& run, const core::ModelConfig& mc) {
  core::TrainedModel out;
  {
    auto s = run.tracer.scope("data.load_default_split");
    out.data = data::load_default_split(mc.n_train, mc.n_test, mc.data_seed);
  }
  {
    auto s = run.tracer.scope("nn.train");
    util::Rng rng(mc.train.seed);
    out.bnn = nn::BnnNetwork(mc.shape, rng);
    nn::BnnTrainer trainer(out.bnn, mc.train);
    trainer.fit(out.data.train.bipolar, out.data.train.labels);
  }
  {
    auto s = run.tracer.scope("nn.accuracy");
    out.bnn_train_accuracy =
        out.bnn.accuracy(out.data.train.bipolar, out.data.train.labels);
    out.bnn_test_accuracy =
        out.bnn.accuracy(out.data.test.bipolar, out.data.test.labels);
  }
  {
    auto s = run.tracer.scope("nn.from_bnn");
    out.snn = nn::SnnNetwork::from_bnn(out.bnn);
  }
  return out;
}

void run_fig8_cold(Run& run) {
  const core::ModelConfig mc = fig8_model_config();
  std::unique_ptr<core::TrainedModel> model;
  std::vector<std::unique_ptr<core::EsamSystem>> systems;
  std::string snn_digest;
  std::vector<double> deploy_s;

  run.set("setup_s", timed_setup(run, kFig8SetupReps, [&](std::size_t r) {
    systems.clear();
    // The traced run decomposes create() into its layer calls on every
    // repetition but the first, which stays the reference.
    if (run.args.trace && r > 0) {
      model = std::make_unique<core::TrainedModel>(
          create_model_traced(run, mc));
    } else {
      auto s = run.tracer.scope("core.create_model");
      model = std::make_unique<core::TrainedModel>(
          core::TrainedModel::create(mc));
    }
    if (model->data.test.source != "synthetic") {
      throw std::runtime_error("dataset source is '" +
                               model->data.test.source +
                               "', not 'synthetic' (unset ESAM_MNIST_DIR)");
    }
    for (sram::CellKind cell : sram::kAllCellKinds) {
      arch::SystemConfig hw;
      hw.cell = cell;
      const auto t0 = Clock::now();
      auto s = run.tracer.scope("arch.deploy");
      systems.push_back(std::make_unique<core::EsamSystem>(*model, hw));
      deploy_s.push_back(seconds_since(t0));
    }
    const std::string d = network_digest(model->snn);
    if (r == 0) {
      snn_digest = d;
    } else if (d != snn_digest) {
      run.fail("set-up repetition " + std::to_string(r) +
                   " converted a different network",
               0);
    }
  }));
  const data::PreparedDataset& test = model->data.test;
  const std::size_t n = test.size();
  std::printf("cold model: %zu train x %zu epochs, BNN test %.4f, "
              "snn digest %s\n",
              model->data.train.size(), kFig8Epochs, model->bnn_test_accuracy,
              snn_digest.c_str());

  // Oracle: the converted network's own software prediction.
  std::vector<std::size_t> oracle(n);
  {
    auto s = run.tracer.scope("nn.snn_predict");
    for (std::size_t i = 0; i < n; ++i) {
      oracle[i] = model->snn.predict(test.spikes[i]);
    }
  }

  constexpr std::size_t kCells = sram::kAllCellKinds.size();
  constexpr std::size_t k4R = kCells - 1;  // 1RW+4R
  static_assert(sram::kAllCellKinds[k4R] == sram::CellKind::k1RW4R);
  std::vector<arch::RunResult> reference(kCells);
  std::vector<double> wall_4r, ns_per_cycle_4r;
  const arch::RunConfig cfg{.num_threads = 1, .batch_size = 0};

  const TimedResult t = timed_loop(run, [&](std::size_t rep) {
    const std::vector<std::size_t> order =
        stream_order(n, run.args.seed, rep);
    std::vector<util::BitVec> inputs;
    std::vector<std::uint8_t> labels;
    inputs.reserve(n);
    labels.reserve(n);
    for (std::size_t i : order) {
      inputs.push_back(test.spikes[i]);
      labels.push_back(test.labels[i]);
    }
    std::vector<bool> bad(n, false);
    for (std::size_t c = 0; c < kCells; ++c) {
      const auto t0 = Clock::now();
      arch::RunResult r;
      {
        auto s = run.tracer.scope("arch.run_batched");
        r = systems[c]->simulator().run_batched(inputs, &labels, cfg);
      }
      const double w = seconds_since(t0);
      if (c == k4R) {
        wall_4r.push_back(w);
        ns_per_cycle_4r.push_back(w * 1e9 / static_cast<double>(r.cycles));
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (i >= r.predictions.size() ||
            r.predictions[i] != oracle[order[i]]) {
          bad[i] = true;
        }
      }
      if (rep == 0) reference[c] = std::move(r);
    }
    const auto mismatches =
        static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
    if (mismatches != 0) {
      run.fail("repetition " + std::to_string(rep) + ": " +
                   std::to_string(mismatches) +
                   " simulated predictions differ from SnnNetwork::predict",
               mismatches);
    }
    return static_cast<std::uint64_t>(n);
  });
  report_timed(run, t);


  const arch::RunResult& r4 = reference[k4R];
  const arch::RunResult& r1 = reference[0];
  const double thr4 = r4.throughput_inf_per_s / 1e6;
  const double pj4 = util::in_picojoules(r4.energy_per_inference);
  const double speedup = r4.throughput_inf_per_s / r1.throughput_inf_per_s;
  const double gain = util::in_picojoules(r1.energy_per_inference) / pj4;
  namespace calib = tech::calib;
  run.set("accuracy", r4.accuracy);
  run.set("model_pj_per_inf", pj4);
  run.set("arch.model_minf_per_s", thr4);
  run.set("fig8.speedup", speedup);
  // Absolute relative error against the paper's Fig. 8 ratios.
  run.set("fig8.speedup_err",
          std::abs(speedup / calib::kArraySpeedup - 1.0));
  run.set("fig8.energy_gain", gain);
  run.set("fig8.energy_gain_err",
          std::abs(gain / calib::kArrayEnergyGain - 1.0));

  Digest digest;
  std::printf("Fig. 8 (modelled, %zu inferences per cell, batch 0):\n", n);
  for (std::size_t c = 0; c < kCells; ++c) {
    const arch::RunResult& r = reference[c];
    const std::string cell(sram::to_string(sram::kAllCellKinds[c]));
    const double pj = util::in_picojoules(r.energy_per_inference);
    std::printf("  %-7s %7.2f MInf/s %7.1f pJ/Inf %7.2f cycles/Inf "
                "accuracy %.4f\n",
                cell.c_str(), r.throughput_inf_per_s / 1e6, pj,
                r.avg_cycles_per_inference, r.accuracy);
    const std::string key = cell_key(sram::kAllCellKinds[c]);
    run.set("arch.cycles_per_inf." + key, r.avg_cycles_per_inference);
    run.set("arch.pj_per_inf." + key, pj);
    digest.add(r.cycles).add(r.accuracy);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(util::EnergyCategory::kCount); ++k) {
      digest.add(util::in_picojoules(
          r.ledger.energy(static_cast<util::EnergyCategory>(k))));
    }
  }
  std::printf("  fig8_speedup %.4f x (paper %.1f x, error %+.2f %%)\n",
              speedup, calib::kArraySpeedup,
              100.0 * (speedup / calib::kArraySpeedup - 1.0));
  std::printf("  fig8_energy_gain %.4f x (paper %.1f x, error %+.2f %%)\n",
              gain, calib::kArrayEnergyGain,
              100.0 * (gain / calib::kArrayEnergyGain - 1.0));
  std::printf("  model_minf_per_s %.4f MInf/s (paper %.0f MInf/s)\n", thr4,
              calib::kSystemThroughputMInfPerS);
  run.check_expected("fig8.snn_digest", snn_digest);
  if (!run.check_expected("fig8.model_digest", digest.hex())) {
    run.failed += n;
  }
  set_ledger_breakdown(run, r4.ledger, static_cast<double>(n));

  run.set("data.spike_density", test.spike_density());
  run.set("nn.test_accuracy", model->bnn_test_accuracy);
  run.set("arch.deploy_s", median(deploy_s));
  run.set("arch.eval_s", median(wall_4r));
  run.set("arch.host_ns_per_inf",
          median(wall_4r) * 1e9 / static_cast<double>(n));
  run.set("arch.host_ns_per_cycle", median(ns_per_cycle_4r));
  if (run.args.trace) {
    const double train_s = span_median(run, "nn.train");
    run.set("data.gen_s", span_median(run, "data.load_default_split"));
    run.set("nn.train_s", train_s);
    if (train_s > 0.0) {
      run.set("nn.train_samples_per_s",
              static_cast<double>(kFig8Train * kFig8Epochs) / train_s);
    }
    run.set("nn.eval_s", span_median(run, "nn.accuracy"));
    run.set("nn.convert_s", span_median(run, "nn.from_bnn"));
  }
}

// ---------------------------------------------------------------------------
// serve_closed

void discard_log(const std::string& /*line*/, void* /*ctx*/) {}

void run_serve_closed(Run& run) {
  const arch::SystemConfig hw{};  // 1RW+4R at 500 mV
  serve::ServerConfig scfg;
  scfg.num_workers = kServeWorkers;
  scfg.max_batch = kServeMaxBatch;
  scfg.log_sink = &discard_log;

  std::optional<io::Checkpoint> ckpt;
  std::optional<data::PreparedDataset> test;
  std::unique_ptr<core::EsamSystem> offline;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<double> load_s, gen_s, deploy_s;

  const auto serve_window = [&](std::span<const std::size_t> idx,
                                std::vector<double>* latency_us,
                                std::vector<serve::InferenceResult>* out) {
    std::vector<std::future<serve::InferenceResult>> futs;
    std::vector<Clock::time_point> sent;
    futs.reserve(idx.size());
    sent.reserve(idx.size());
    {
      auto s = run.tracer.scope("serve.submit_window");
      for (std::size_t i : idx) {
        sent.push_back(Clock::now());
        futs.push_back(server->submit(test->spikes[i]));
      }
    }
    auto s = run.tracer.scope("serve.await_window");
    for (std::size_t k = 0; k < futs.size(); ++k) {
      serve::InferenceResult res = futs[k].get();
      if (latency_us != nullptr) {
        latency_us->push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - sent[k])
                .count());
      }
      if (out != nullptr) out->push_back(res);
    }
  };

  run.set("setup_s", timed_setup(run, kDeployedSetupReps, [&](std::size_t) {
    if (server) {
      auto s = run.tracer.scope("serve.stop");
      server->stop();
      server.reset();
    }
    auto t0 = Clock::now();
    ckpt = load_checkpoint(run);
    load_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    test = make_test_pool(run, kServePool);
    gen_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    {
      auto s = run.tracer.scope("arch.deploy");
      offline = std::make_unique<core::EsamSystem>(*ckpt, hw);
    }
    deploy_s.push_back(seconds_since(t0));
    {
      auto s = run.tracer.scope("serve.start");
      server = std::make_unique<serve::InferenceServer>(tech::imec3nm(), hw,
                                                        *ckpt, scfg);
      server->start();
    }
    // One window before timing: the worker pipelines are built and warm.
    std::vector<std::size_t> warm(kServeWindow);
    std::iota(warm.begin(), warm.end(), std::size_t{0});
    serve_window(warm, nullptr, nullptr);
  }));
  const std::size_t n = test->size();

  // Oracle: an offline run of the same checkpoint on the pipelined engine.
  offline->attach_test_data(*test);
  std::vector<std::size_t> oracle;
  {
    auto s = run.tracer.scope("arch.run_batched");
    oracle = offline->simulator()
                 .run_batched(test->spikes, &test->labels,
                              {.num_threads = 1, .batch_size = 0})
                 .predictions;
  }

  // Latency and queue-wait quantiles are taken per pass (1024 requests, so
  // ten lie beyond the p99) and reported as medians over the passes; this
  // keeps memory flat however many requests a run serves.
  std::vector<double> latency_us, queue_wait_us;
  latency_us.reserve(n);
  queue_wait_us.reserve(n);
  std::vector<double> pass_p50, pass_p99, pass_wait_p50, pass_wait_p99;
  // Closed-loop throughput per window; ops_per_s is their median. Unlike
  // the fixed repetitions of the other workloads, windows differ by design
  // (how the two workers' batches overlap), so the typical window, not the
  // fastest tenth, describes the server. Stalled windows show in
  // serve.latency_p99_us.
  std::vector<double> window_rate;
  std::vector<bool> window_traced;
  window_rate.reserve(1 << 16);
  std::uint64_t correct = 0;
  // Modelled energy and latency of a request depend on the batch it rode
  // in, and batch cuts depend on host timing (the deadline), so these sums
  // cover every timed request rather than one reference pass.
  double energy_pj = 0.0;
  double modeled_latency_ns = 0.0;

  const TimedResult t = timed_loop(run, [&](std::size_t rep) {
    const std::vector<std::size_t> order =
        stream_order(n, run.args.seed, rep);
    std::vector<serve::InferenceResult> results;
    results.reserve(kServeWindow);
    latency_us.clear();
    queue_wait_us.clear();
    std::uint64_t mismatches = 0;
    for (std::size_t w = 0; w < n; w += kServeWindow) {
      const std::span<const std::size_t> idx(
          order.data() + w, std::min(kServeWindow, n - w));
      results.clear();
      try {
        const auto t0 = Clock::now();
        serve_window(idx, &latency_us, &results);
        window_rate.push_back(static_cast<double>(idx.size()) /
                              seconds_since(t0));
        window_traced.push_back(run.tracer.enabled());
      } catch (const std::exception& e) {
        run.fail(std::string("serve window failed: ") + e.what(),
                 idx.size());
        continue;
      }
      for (std::size_t k = 0; k < idx.size(); ++k) {
        const serve::InferenceResult& res = results[k];
        queue_wait_us.push_back(res.queue_wait_us);
        if (res.prediction != oracle[idx[k]]) ++mismatches;
        if (res.prediction == test->labels[idx[k]]) ++correct;
        energy_pj += res.modeled_energy_pj;
        modeled_latency_ns += res.modeled_latency_ns;
      }
    }
    if (mismatches != 0) {
      run.fail("repetition " + std::to_string(rep) + ": " +
                   std::to_string(mismatches) +
                   " served predictions differ from the offline run",
               mismatches);
    }
    pass_p50.push_back(quantile(latency_us, 0.5));
    pass_p99.push_back(quantile(latency_us, 0.99));
    pass_wait_p50.push_back(quantile(queue_wait_us, 0.5));
    pass_wait_p99.push_back(quantile(queue_wait_us, 0.99));
    return static_cast<std::uint64_t>(n);
  });
  {
    auto s = run.tracer.scope("serve.stop");
    server->stop();
  }
  report_timed(run, t);
  run.set("ops_per_s", median(window_rate));
  if (run.args.trace) {
    // Whole passes vary 4x on a shared host; the many short windows resolve
    // the tracing overhead where the passes cannot.
    std::vector<double> on, off;
    for (std::size_t i = 0; i < window_rate.size(); ++i) {
      (window_traced[i] ? on : off).push_back(window_rate[i]);
    }
    run.set("trace.overhead_frac", median(off) / median(on) - 1.0);
  }
  const serve::ServerStats stats = server->stats();
  // The warm-up windows are not part of the timed section.
  const double served = static_cast<double>(t.ops);

  run.set("serve.latency_p50_us", median(pass_p50));
  run.set("accuracy", static_cast<double>(correct) / served);
  run.set("model_pj_per_inf", energy_pj / served);
  run.set("serve.batches", static_cast<double>(stats.batches_dispatched));
  run.set("serve.mean_batch",
          static_cast<double>(stats.requests_served) /
              static_cast<double>(stats.batches_dispatched));
  run.set("serve.full_dispatch_frac",
          static_cast<double>(stats.full_dispatches) /
              static_cast<double>(stats.batches_dispatched));
  run.set("serve.queue_wait_p50_us", median(pass_wait_p50));
  run.set("serve.queue_wait_p99_us", median(pass_wait_p99));
  run.set("serve.latency_p99_us", median(pass_p99));
  run.set("serve.modeled_latency_ns", modeled_latency_ns / served);
  std::printf("served %.0f requests in %llu batches (%llu full)\n", served,
              static_cast<unsigned long long>(stats.batches_dispatched),
              static_cast<unsigned long long>(stats.full_dispatches));
  std::printf("  latency p50 %.1f us, p99 %.1f us (host, submit to ready, "
              "median of %zu passes)\n",
              median(pass_p50), median(pass_p99), pass_p50.size());

  run.set("io.ckpt_load_s", median(load_s));
  run.set("data.gen_s", median(gen_s));
  run.set("data.spike_density", test->spike_density());
  run.set("arch.deploy_s", median(deploy_s));
  if (run.args.trace) {
    // The server's per-batch arch work, replayed outside it: the same
    // SystemSimulator::run call on full batches of the pool.
    arch::SystemSimulator& sim = offline->simulator();
    util::EnergyLedger ledger;
    std::uint64_t cycles = 0;
    std::uint64_t mismatches = 0;
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < n; b += kServeMaxBatch) {
      const std::vector<util::BitVec> batch(
          test->spikes.begin() + static_cast<std::ptrdiff_t>(b),
          test->spikes.begin() +
              static_cast<std::ptrdiff_t>(std::min(n, b + kServeMaxBatch)));
      auto s = run.tracer.scope("arch.run");
      const arch::RunResult r = sim.run(batch);
      ledger += r.ledger;
      cycles += r.cycles;
      for (std::size_t k = 0; k < r.predictions.size(); ++k) {
        if (r.predictions[k] != oracle[b + k]) ++mismatches;
      }
    }
    const double wall = seconds_since(t0);
    if (mismatches != 0) {
      run.fail("batch-16 arch replay differs from the offline run",
               mismatches);
    }
    const double inf = static_cast<double>(n);
    run.set("arch.eval_s", wall);
    run.set("arch.host_ns_per_inf", wall * 1e9 / inf);
    run.set("arch.host_ns_per_cycle", wall * 1e9 / static_cast<double>(cycles));
    run.set("arch.cycles_per_inf.1RW_4R", static_cast<double>(cycles) / inf);
    run.set("arch.pj_per_inf.1RW_4R",
            util::in_picojoules(ledger.total_energy()) / inf);
    set_ledger_breakdown(run, ledger, inf);
  }
}

// ---------------------------------------------------------------------------
// drift_adapt

core::OnlineOptions drift_options(std::uint64_t drift_seed,
                                  std::size_t workers) {
  core::OnlineOptions opt;
  opt.max_inferences = kDriftPool;
  opt.epochs = kDriftEpochs;
  opt.drift_fraction = kDriftFraction;
  opt.drift_seed = drift_seed;
  opt.update_interval = kDriftInterval;
  opt.trainer.hidden_rule = learning::HiddenRule::kWtaStdp;
  opt.run = {.num_threads = workers, .batch_size = kDriftEvalBatch};
  return opt;
}

/// Digest of everything modelled in an online report (not the host-side
/// worker count).
std::string online_digest(const core::OnlineReport& r) {
  Digest d;
  d.add(r.accuracy_clean).add(r.accuracy_drifted);
  for (double a : r.epoch_eval_accuracy) d.add(a);
  for (double a : r.epoch_online_accuracy) d.add(a);
  d.add(r.column_updates).add(r.column_rmws);
  for (std::uint64_t u : r.tile_column_updates) d.add(u);
  d.add(r.learning_time_us).add(r.learning_energy_pj).add(r.train_cycles);
  d.add(r.train_energy_pj).add(r.weight_bits_changed);
  d.add(r.energy_per_inf_pj).add(r.learning_energy_share);
  return d.hex();
}

bool online_report_sane(const core::OnlineReport& r) {
  const std::uint64_t tiles =
      std::accumulate(r.tile_column_updates.begin(),
                      r.tile_column_updates.end(), std::uint64_t{0});
  const auto in01 = [](double a) { return a >= 0.0 && a <= 1.0; };
  return r.epoch_eval_accuracy.size() == kDriftEpochs &&
         in01(r.accuracy_clean) && in01(r.accuracy_drifted) &&
         in01(r.epoch_eval_accuracy.back()) &&
         r.column_rmws <= r.column_updates && tiles == r.column_updates &&
         r.energy_per_inf_pj > 0.0;
}

void run_drift_adapt(Run& run) {
  const arch::SystemConfig hw{};
  std::optional<io::Checkpoint> ckpt;
  std::optional<data::PreparedDataset> test;
  std::unique_ptr<core::EsamSystem> sys;
  std::vector<double> load_s, gen_s, deploy_s;

  const auto deploy = [&] {
    const auto t0 = Clock::now();
    auto s = run.tracer.scope("arch.deploy");
    sys = std::make_unique<core::EsamSystem>(*ckpt, hw);
    sys->attach_test_data(*test);
    deploy_s.push_back(seconds_since(t0));
  };

  run.set("setup_s", timed_setup(run, kDeployedSetupReps, [&](std::size_t) {
    auto t0 = Clock::now();
    ckpt = load_checkpoint(run);
    load_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    test = make_test_pool(run, kDriftPool);
    gen_s.push_back(seconds_since(t0));
    deploy();
  }));

  core::OnlineReport ref;
  std::string variant_weights, variant_report;
  std::uint64_t variant_drift_seed = 0;
  std::vector<double> learn_s;

  const TimedResult t = timed_loop(run, [&](std::size_t rep) {
    if (rep > 0) deploy();  // learn_online adapts the SRAM in place
    const std::uint64_t drift_seed =
        rep == 0 ? kDriftSeed : variant_seed(run.args.seed, rep);
    const core::OnlineOptions opt = drift_options(drift_seed, kDriftWorkers);
    const auto t0 = Clock::now();
    core::OnlineReport r;
    {
      auto s = run.tracer.scope("learning.learn_online");
      r = sys->learn_online(opt);
    }
    learn_s.push_back(seconds_since(t0));
    const std::uint64_t ops = r.train_samples * r.epochs;
    if (!online_report_sane(r)) {
      run.fail("repetition " + std::to_string(rep) +
                   ": inconsistent online report",
               ops);
    }
    const std::string weights = hex32(sys->make_checkpoint().content_crc());
    if (rep == 0) {
      ref = r;
      bool ok = run.check_expected("drift.weights_crc", weights);
      ok &= run.check_expected("drift.report_digest", online_digest(r));
      ok &= run.check_expected("drift.column_updates",
                               std::to_string(r.column_updates));
      ok &= run.check_expected("drift.column_rmws",
                               std::to_string(r.column_rmws));
      if (!ok) run.failed += ops;
    } else {
      variant_weights = weights;
      variant_report = online_digest(r);
      variant_drift_seed = drift_seed;
    }
    return ops;
  });
  report_timed(run, t);

  // Oracle for the seeded variants: k-window training is deterministic in
  // the worker count, so a one-worker replay of the last variant must land
  // on the same weights and report.
  {
    deploy();
    auto s = run.tracer.scope("learning.learn_online");
    const core::OnlineReport r =
        sys->learn_online(drift_options(variant_drift_seed, 1));
    const std::string weights = hex32(sys->make_checkpoint().content_crc());
    if (weights != variant_weights || online_digest(r) != variant_report) {
      run.fail("one-worker replay of drift seed " +
                   std::to_string(variant_drift_seed) +
                   " differs from the two-worker run",
               r.train_samples * r.epochs);
    }
  }

  const double final_acc = ref.epoch_eval_accuracy.back();
  const double gain = final_acc - ref.accuracy_drifted;
  std::printf("drift_adapt reference (drift seed %llu, k=%zu, %s):\n",
              static_cast<unsigned long long>(kDriftSeed), kDriftInterval,
              ref.hidden_rule.c_str());
  std::printf("  accuracy clean %.4f, drifted %.4f, final %.4f\n",
              ref.accuracy_clean, ref.accuracy_drifted, final_acc);
  std::printf("  adapt_gain %+.4f (final minus drifted)\n", gain);
  std::printf("  model_pj_per_inf %.2f pJ (incl. learning)\n",
              ref.energy_per_inf_pj);

  run.set("accuracy", final_acc);
  run.set("model_pj_per_inf", ref.energy_per_inf_pj);
  run.set("learning.adapt_gain", gain);
  const auto updates = static_cast<double>(ref.column_updates);
  run.set("learning.column_updates", updates);
  run.set("learning.column_rmws", static_cast<double>(ref.column_rmws));
  run.set("learning.rmw_per_update",
          static_cast<double>(ref.column_rmws) / updates);
  for (std::size_t i = 0; i < ref.tile_column_updates.size() && i < 4; ++i) {
    run.set("learning.tile_updates." + std::to_string(i),
            static_cast<double>(ref.tile_column_updates[i]));
  }
  run.set("learning.host_us_per_sample",
          median(learn_s) * 1e6 /
              static_cast<double>(ref.train_samples * ref.epochs));
  run.set("learning.model_ns_per_update",
          ref.learning_time_us * 1e3 / updates);
  run.set("learning.pj_per_update", ref.learning_energy_pj / updates);
  run.set("learning.weight_bits_changed",
          static_cast<double>(ref.weight_bits_changed));
  run.set("io.ckpt_load_s", median(load_s));
  run.set("data.gen_s", median(gen_s));
  run.set("data.spike_density", test->spike_density());
  run.set("arch.deploy_s", median(deploy_s));
}

// ---------------------------------------------------------------------------
// fleet

fleet::FleetConfig fleet_config(std::uint64_t seed, std::size_t devices,
                                std::size_t workers) {
  fleet::FleetConfig fc;
  fc.devices = devices;
  fc.workers = workers;
  fc.shard_inferences = kFleetShard;
  fc.adapt_epochs = kFleetEpochs;
  fc.device.seed = seed;
  return fc;
}

std::string device_digest(const fleet::DeviceReport& d) {
  Digest g;
  g.add(d.id).add(d.seeds).add(d.variation).add(d.fault_cells);
  g.add(d.timing.read_path_ns).add(d.timing.neuron_ns);
  g.add(d.timing.stage_budget_ns).add(d.timing.fits).add(d.inferences);
  g.add(d.accuracy_clean).add(d.accuracy_drifted).add(d.accuracy_final);
  g.add(d.energy_per_inf_pj).add(d.leakage_mw).add(d.column_updates);
  g.add(d.functional);
  return g.hex();
}

std::string fleet_digest(const fleet::FleetReport& r) {
  Digest g;
  g.add(r.timing_yield).add(r.functional_yield);
  for (const fleet::DeviceReport& d : r.per_device) {
    g.add_str(device_digest(d));
  }
  return g.hex();
}

void run_fleet(Run& run) {
  const tech::TechnologyParams& node = tech::imec3nm();
  std::optional<io::Checkpoint> ckpt;
  std::optional<data::PreparedDataset> test;
  std::vector<double> load_s, gen_s;

  run.set("setup_s", timed_setup(run, kDeployedSetupReps, [&](std::size_t) {
    auto t0 = Clock::now();
    ckpt = load_checkpoint(run);
    load_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    test = make_test_pool(run, kFleetPool);
    gen_s.push_back(seconds_since(t0));
  }));

  fleet::FleetReport ref;
  std::string variant_die0;
  std::uint64_t variant_fleet_seed = 0;
  std::vector<double> run_s;

  const TimedResult t = timed_loop(run, [&](std::size_t rep) {
    const std::uint64_t seed =
        rep == 0 ? kFleetSeed : variant_seed(run.args.seed, rep);
    const fleet::FleetSimulator fs(ckpt->network, *test, node,
                                   fleet_config(seed, kFleetDevices,
                                                kFleetWorkers));
    const auto t0 = Clock::now();
    fleet::FleetReport r;
    {
      auto s = run.tracer.scope("fleet.run");
      r = fs.run();
    }
    run_s.push_back(seconds_since(t0));
    if (r.per_device.size() != kFleetDevices) {
      run.fail("fleet report has " + std::to_string(r.per_device.size()) +
                   " dies",
               kFleetDevices);
      return static_cast<std::uint64_t>(kFleetDevices);
    }
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < r.per_device.size(); ++i) {
      const fleet::DeviceReport& d = r.per_device[i];
      if (d.id != i || d.accuracy_final < 0.0 || d.accuracy_final > 1.0 ||
          d.functional != (d.accuracy_final >= r.accuracy_floor)) {
        ++bad;
      }
    }
    if (bad != 0) {
      run.fail("repetition " + std::to_string(rep) + ": " +
                   std::to_string(bad) + " inconsistent die reports",
               bad);
    }
    if (rep == 0) {
      ref = r;
      if (!run.check_expected("fleet.report_digest", fleet_digest(r))) {
        run.failed += kFleetDevices;
      }
    } else {
      variant_die0 = device_digest(r.per_device.front());
      variant_fleet_seed = seed;
    }
    return static_cast<std::uint64_t>(kFleetDevices);
  });
  report_timed(run, t);

  // Oracle for the seeded variants: a die's report depends only on the
  // fleet config and its id, so die 0 simulated alone on one worker must
  // match die 0 of the last variant's full run.
  {
    const fleet::FleetSimulator solo(ckpt->network, *test, node,
                                     fleet_config(variant_fleet_seed, 1, 1));
    auto s = run.tracer.scope("fleet.run");
    const fleet::FleetReport r = solo.run();
    if (r.per_device.size() != 1 ||
        device_digest(r.per_device.front()) != variant_die0) {
      run.fail("die 0 of fleet seed " + std::to_string(variant_fleet_seed) +
                   " differs when simulated alone",
               1);
    }
  }

  const double gain = ref.accuracy_final.p50 - ref.accuracy_drifted.p50;
  std::printf("fleet reference (%zu dies, seed %llu):\n", kFleetDevices,
              static_cast<unsigned long long>(kFleetSeed));
  std::printf("  accuracy p50 clean %.4f, drifted %.4f, final %.4f\n",
              ref.accuracy_clean.p50, ref.accuracy_drifted.p50,
              ref.accuracy_final.p50);
  std::printf("  adapt_gain %+.4f (final p50 minus drifted p50)\n", gain);
  std::printf("  timing_yield %.4f, functional_yield %.4f\n",
              ref.timing_yield, ref.functional_yield);

  run.set("accuracy", ref.accuracy_final.p50);
  run.set("model_pj_per_inf", ref.energy_per_inf_pj.p50);
  run.set("learning.adapt_gain", gain);
  std::uint64_t updates = 0;
  for (const fleet::DeviceReport& d : ref.per_device) {
    updates += d.column_updates;
  }
  run.set("learning.column_updates", static_cast<double>(updates));
  run.set("fleet.run_s", median(run_s));
  run.set("fleet.fault_cells", ref.fault_cells.p50);
  run.set("fleet.read_path_ns_p50", ref.read_path_ns.p50);
  run.set("fleet.functional_yield", ref.functional_yield);
  run.set("fleet.timing_yield", ref.timing_yield);
  run.set("io.ckpt_load_s", median(load_s));
  run.set("data.gen_s", median(gen_s));
  run.set("data.spike_density", test->spike_density());
  if (run.args.trace) {
    const fleet::FleetSimulator fs(
        ckpt->network, *test, node,
        fleet_config(kFleetSeed, kFleetDevices, kFleetWorkers));
    std::vector<double> build_s;
    for (std::size_t id = 0; id < kFleetDevices; ++id) {
      const auto t0 = Clock::now();
      auto s = run.tracer.scope("fleet.make_device");
      const auto dev = fs.factory().make_device(id);
      build_s.push_back(seconds_since(t0));
    }
    run.set("fleet.device_build_s", median(build_s));
  }
}

// ---------------------------------------------------------------------------
// Output.

void print_json(const Run& run, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  const std::vector<MetricDef>& defs =
      run.args.trace ? layer_metrics() : end_to_end_metrics();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = run.values.find(defs[i].name);
    const double v = it == run.values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name.c_str(),
                std::isfinite(v) ? v : 0.0, defs[i].unit.c_str());
  }
  std::printf("}}\n");
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "esam_perfbench: %s\nusage: esam_perfbench --workload "
               "fig8_cold|serve_closed|drift_adapt|fleet --seed N "
               "--seconds S --trace 0|1 --root DIR [--expect KEY=VALUE]... "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      const auto s = util::parse_size(v);
      if (!s) usage("bad --seed " + v);
      a.seed = *s;
    } else if (flag == "--seconds") {
      const auto s = util::parse_double(v);
      if (!s || *s <= 0.0) usage("bad --seconds " + v);
      a.seconds = *s;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--root") {
      a.root = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--expect") {
      const std::size_t eq = v.find('=');
      if (eq == std::string::npos) usage("bad --expect " + v);
      a.expect[v.substr(0, eq)] = v.substr(eq + 1);
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Run run(parse_args(argc, argv));
  const std::map<std::string, std::function<void(Run&)>> workloads{
      {"fig8_cold", run_fig8_cold},
      {"serve_closed", run_serve_closed},
      {"drift_adapt", run_drift_adapt},
      {"fleet", run_fleet},
  };
  const auto it = workloads.find(run.args.workload);
  if (it == workloads.end()) usage("unknown workload " + run.args.workload);

  std::printf("workload %s, seed %llu, %.0f s, trace %d\n",
              run.args.workload.c_str(),
              static_cast<unsigned long long>(run.args.seed),
              run.args.seconds, run.args.trace ? 1 : 0);
  try {
    it->second(run);
  } catch (const std::exception& e) {
    // A workload that cannot run prints no result.
    std::fprintf(stderr, "esam_perfbench: %s\n", e.what());
    return 1;
  }
  run.set("peak_rss_mb", peak_rss_mib());
  if (run.args.trace) {
    const double root = run.tracer.root_seconds();
    for (const auto& [layer, self] : run.tracer.self_seconds_by_layer()) {
      run.set("trace.self_frac." + layer, root > 0.0 ? self / root : 0.0);
    }
    if (!run.args.trace_out.empty() &&
        !run.tracer.write_chrome_trace(run.args.trace_out)) {
      std::fprintf(stderr, "esam_perfbench: cannot write %s\n",
                   run.args.trace_out.c_str());
    }
  } else {
    std::printf("end-to-end metrics:\n");
    for (const MetricDef& m : end_to_end_metrics()) {
      std::printf("  %-18s %.6g %s\n", m.name.c_str(), run.values[m.name],
                  m.unit.c_str());
    }
  }
  for (const std::string& p : run.problems) {
    std::printf("CORRECTNESS: %s\n", p.c_str());
  }
  const bool correct = run.problems.empty() && run.failed == 0;
  print_json(run, correct);
  return correct ? 0 : 3;
}
