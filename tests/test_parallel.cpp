// Tests for the batched multi-threaded simulation engine: sharded runs must
// be bit-for-bit identical to single-threaded runs (predictions, cycle
// counts, merged ledger energies), tiles must deep-clone, and the engine
// must reject malformed input like run() does.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "esam/arch/system.hpp"
#include "esam/learning/online_learner.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/parallel.hpp"
#include "esam/util/rng.hpp"
#include "learner_events.hpp"

namespace esam::arch {
namespace {

nn::SnnNetwork random_snn(const std::vector<std::size_t>& shape,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  nn::BnnNetwork bnn(shape, rng);
  for (auto& l : bnn.layers()) {
    for (auto& b : l.bias) b = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  return nn::SnnNetwork::from_bnn(bnn);
}

std::vector<util::BitVec> random_inputs(std::size_t n, std::size_t width,
                                        std::uint64_t seed,
                                        double density = 0.25) {
  util::Rng rng(seed);
  std::vector<util::BitVec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::BitVec v(width);
    for (std::size_t k = 0; k < width; ++k) {
      if (rng.bernoulli(density)) v.set(k);
    }
    out.push_back(std::move(v));
  }
  return out;
}

/// Exact (bit-level) equality of two run results, including the per-category
/// ledger energies. Doubles are compared with == on purpose: the merge order
/// is fixed, so even floating-point sums must agree exactly.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(util::in_seconds(a.elapsed), util::in_seconds(b.elapsed));
  for (int c = 0; c < static_cast<int>(util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<util::EnergyCategory>(c);
    EXPECT_EQ(a.ledger.energy(cat).base(), b.ledger.energy(cat).base())
        << "category " << util::to_string(cat);
  }
  EXPECT_EQ(a.ledger.total_energy().base(), b.ledger.total_energy().base());
  EXPECT_EQ(a.accuracy, b.accuracy);
}

TEST(Parallel, MultiThreadMatchesSingleThreadExactly) {
  const nn::SnnNetwork snn = random_snn({96, 64, 32, 7}, 201);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(100, 96, 202);

  RunConfig base;
  base.num_threads = 1;
  base.batch_size = 16;
  const RunResult single = sim.run_batched(inputs, nullptr, base);
  EXPECT_EQ(single.threads, 1u);
  EXPECT_EQ(single.batches, 7u);  // ceil(100 / 16)

  for (std::size_t threads : {2u, 4u, 8u}) {
    RunConfig cfg;
    cfg.num_threads = threads;
    cfg.batch_size = 16;
    const RunResult multi = sim.run_batched(inputs, nullptr, cfg);
    expect_identical(single, multi);
  }
}

TEST(Parallel, LabelsAndAccuracyIdenticalAcrossThreadCounts) {
  const nn::SnnNetwork snn = random_snn({64, 32, 4}, 210);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(60, 64, 211);
  std::vector<std::uint8_t> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    labels[i] = static_cast<std::uint8_t>(i % 4);
  }
  RunConfig one{.num_threads = 1, .batch_size = 8};
  RunConfig eight{.num_threads = 8, .batch_size = 8};
  const RunResult a = sim.run_batched(inputs, &labels, one);
  const RunResult b = sim.run_batched(inputs, &labels, eight);
  expect_identical(a, b);
}

TEST(Parallel, PredictionsMatchLegacySingleStreamRun) {
  // Pipelining / batching never changes what an inference computes, only
  // how cycles are accounted -- predictions must match the continuous run.
  const nn::SnnNetwork snn = random_snn({96, 48, 5}, 220);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(70, 96, 221);
  const RunResult stream = sim.run(inputs);
  const RunResult batched =
      sim.run_batched(inputs, nullptr, {.num_threads = 4, .batch_size = 0});
  EXPECT_EQ(stream.predictions, batched.predictions);
}

TEST(Parallel, MatchesSoftwareReferenceUnderThreads) {
  const nn::SnnNetwork snn = random_snn({128, 64, 9}, 230);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(48, 128, 231);
  const RunResult r =
      sim.run_batched(inputs, nullptr, {.num_threads = 3, .batch_size = 7});
  ASSERT_EQ(r.predictions.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(r.predictions[i], snn.predict(inputs[i])) << "inference " << i;
  }
}

TEST(Parallel, WholeStreamAsOneBatchEqualsLegacyRun) {
  const nn::SnnNetwork snn = random_snn({64, 32, 6}, 240);
  SystemSimulator a(tech::imec3nm(), snn, {});
  SystemSimulator b(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(40, 64, 241);
  const RunResult stream = a.run(inputs);
  const RunResult one_batch =
      b.run_batched(inputs, nullptr, {.num_threads = 1, .batch_size = 40});
  expect_identical(stream, one_batch);
}

TEST(Parallel, BatchSizeZeroIsWholeStreamRegardlessOfThreads) {
  // batch_size 0 = one batch covering everything: identical to run() even
  // when many threads are requested (there is only one unit of work), and
  // a batch size larger than the input count clamps to the same thing.
  const nn::SnnNetwork snn = random_snn({64, 32, 6}, 245);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(30, 64, 246);
  const RunResult stream = sim.run(inputs);
  const RunResult zero =
      sim.run_batched(inputs, nullptr, {.num_threads = 8, .batch_size = 0});
  expect_identical(stream, zero);
  EXPECT_EQ(zero.batches, 1u);
  const RunResult oversized = sim.run_batched(
      inputs, nullptr, {.num_threads = 8, .batch_size = 1000000});
  expect_identical(stream, oversized);
}

TEST(Parallel, RepeatedRunsAreDeterministic) {
  // Worker pipelines are cloned per run; state never bleeds across calls.
  const nn::SnnNetwork snn = random_snn({96, 48, 8}, 250);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(64, 96, 251);
  const RunConfig cfg{.num_threads = 4, .batch_size = 8};
  const RunResult first = sim.run_batched(inputs, nullptr, cfg);
  const RunResult second = sim.run_batched(inputs, nullptr, cfg);
  expect_identical(first, second);
}

TEST(Parallel, ThreadsCappedByBatchCount) {
  const nn::SnnNetwork snn = random_snn({32, 8}, 260);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(10, 32, 261);
  const RunResult r =
      sim.run_batched(inputs, nullptr, {.num_threads = 16, .batch_size = 5});
  EXPECT_EQ(r.batches, 2u);
  EXPECT_LE(r.threads, 2u);
}

TEST(Parallel, RejectsBadInputLikeRun) {
  const nn::SnnNetwork snn = random_snn({32, 8}, 270);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  EXPECT_THROW((void)sim.run_batched({}), std::invalid_argument);
  const auto inputs = random_inputs(4, 32, 271);
  std::vector<std::uint8_t> labels(3, 0);
  EXPECT_THROW((void)sim.run_batched(inputs, &labels), std::invalid_argument);
}

TEST(Parallel, LearnedWeightsVisibleToClonedWorkerPipelines) {
  // The learning/batched-engine interplay: OnlineLearner mutates the
  // canonical tiles' SRAM in place, so the deep-cloned worker pipelines of
  // the next run_batched must see the new weights, and run()/run_batched()
  // must agree on the post-learning predictions.
  const nn::SnnNetwork snn = random_snn({64, 32, 6}, 290);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  const auto inputs = random_inputs(48, 64, 291);
  const RunConfig cfg{.num_threads = 4, .batch_size = 8};
  const RunResult before = sim.run_batched(inputs, nullptr, cfg);

  // Deterministically rewrite the output tile's weight columns: column j
  // becomes exactly the per-column spike pattern (p_pot = p_dep = 1).
  learning::OnlineLearner learner(
      sim.tile(1), {.p_potentiation = 1.0, .p_depression = 1.0, .seed = 3});
  for (std::size_t j = 0; j < 6; ++j) {
    util::BitVec pre(32);
    for (std::size_t i = j; i < 32; i += j + 2) pre.set(i);
    testutil::reward(learner, j, pre);
  }

  const RunResult stream = sim.run(inputs);
  const RunResult batched = sim.run_batched(inputs, nullptr, cfg);
  EXPECT_EQ(stream.predictions, batched.predictions);
  EXPECT_NE(batched.predictions, before.predictions);  // weights did change
  for (const std::size_t threads : {1u, 8u}) {
    const RunResult again = sim.run_batched(
        inputs, nullptr, {.num_threads = threads, .batch_size = 8});
    expect_identical(batched, again);
  }
}

TEST(Parallel, TileDeepCopyIsIndependent) {
  const nn::SnnNetwork snn = random_snn({32, 16}, 280);
  SystemSimulator sim(tech::imec3nm(), snn, {});
  Tile copy = sim.tile(0);

  // Flip a weight bit in the original; the copy must keep the old value.
  const bool before = copy.macro(0, 0).peek(3, 5);
  sim.tile(0).macro(0, 0).poke(3, 5, !before);
  EXPECT_EQ(copy.macro(0, 0).peek(3, 5), before);
  EXPECT_EQ(sim.tile(0).macro(0, 0).peek(3, 5), !before);

  // And the copy's macros must not post into any ledger of the original.
  util::EnergyLedger ledger;
  sim.tile(0).attach_ledger(&ledger);
  Tile detached = sim.tile(0);
  const util::BitVec spikes = random_inputs(1, 32, 281)[0];
  (void)detached.burst(spikes);
  EXPECT_EQ(ledger.total_energy().base(), 0.0);
}

TEST(Parallel, ResolveWorkersClampsToItemsAndCap) {
  EXPECT_EQ(util::resolve_workers(SIZE_MAX, 1'000'000), util::kMaxWorkers);
  EXPECT_EQ(util::kMaxWorkers, 256u);
  EXPECT_EQ(util::resolve_workers(8, 3), 3u);
  EXPECT_EQ(util::resolve_workers(2, 10), 2u);
  EXPECT_EQ(util::resolve_workers(5, 0), 1u);
  const std::size_t hw = util::resolve_workers(0, 1'000'000);
  EXPECT_GE(hw, 1u);
  EXPECT_LE(hw, util::kMaxWorkers);
}

TEST(Parallel, ParallelForVisitsEveryIndexOnce) {
  constexpr std::size_t kCount = 1000;
  for (const std::size_t workers : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> visits(kCount);
    std::atomic<bool> bad_worker{false};
    util::parallel_for(kCount, workers, [&](std::size_t w, std::size_t i) {
      if (w >= workers) bad_worker = true;
      visits[i].fetch_add(1);
    });
    EXPECT_FALSE(bad_worker.load());
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << ", " << workers
                                     << " workers";
    }
  }
  util::parallel_for(0, 4, [](std::size_t, std::size_t) {
    ADD_FAILURE() << "no index to visit";
  });
}

TEST(Parallel, ParallelForOutputsIndependentOfWorkerCount) {
  // Per-index slots, like every caller's result vectors: the schedule must
  // not show in the output, including with more workers than indices.
  constexpr std::size_t kCount = 37;
  const auto run = [](std::size_t workers) {
    std::vector<std::uint64_t> out(kCount);
    util::parallel_for(kCount, workers, [&](std::size_t, std::size_t i) {
      util::Rng rng(1000 + i);
      out[i] = rng.next_u64();
    });
    return out;
  };
  const std::vector<std::uint64_t> serial = run(1);
  for (std::size_t workers = 2; workers <= 8; ++workers) {
    EXPECT_EQ(run(workers), serial) << workers << " workers";
  }
  EXPECT_EQ(run(100), serial);
}

TEST(Parallel, SpawnedWorkerExceptionRethrownAfterJoin) {
  constexpr std::size_t kCount = 64;
  // Plain (non-atomic) slots: reading them below is race-free only if
  // every worker has joined before parallel_for rethrows.
  std::vector<int> visits(kCount, 0);
  std::atomic<bool> thrown{false};
  try {
    util::parallel_for(kCount, 4, [&](std::size_t w, std::size_t i) {
      if (w == 0) {
        // Hold the calling thread until a spawned worker has failed, so
        // the exception provably crosses a thread boundary.
        while (!thrown.load()) std::this_thread::yield();
      } else if (!thrown.exchange(true)) {
        throw std::runtime_error("index " + std::to_string(i));
      }
      visits[i] = 1;
    });
    ADD_FAILURE() << "the worker's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("index ", 0), 0u);
  }
  // Only the failing index is missing: the failed worker stopped and the
  // others drained the rest before the rethrow.
  EXPECT_EQ(std::count(visits.begin(), visits.end(), 1),
            static_cast<std::ptrdiff_t>(kCount - 1));
}

TEST(Parallel, PipelineScheduleHandComputedCase) {
  // Two tiles bursting 3 and 5 cycles, first latch at cycle 1.
  // Sample 0: tile 0 fires at 4, tile 1 latches at 4 and retires at 9.
  // Sample 1: tile 0 latches at 4 and fires at 7, but tile 1 frees only at
  // 9, so the handoff waits; tile 1 retires at 9 + 5 = 14.
  PipelineSchedule schedule(2, 1);
  const std::uint64_t busy[] = {3, 5};
  EXPECT_EQ(schedule.push(busy), 9u);
  EXPECT_EQ(schedule.push(busy), 14u);
  const std::uint64_t wrong_width[] = {3};
  EXPECT_THROW((void)schedule.push(wrong_width), std::invalid_argument);
}

TEST(Parallel, TileWinnerMatchesMaxElementOnTies) {
  TileConfig cfg;
  cfg.inputs = 16;
  cfg.outputs = 4;
  cfg.is_output_layer = true;
  Tile tile(tech::imec3nm(), cfg);
  nn::SnnLayer layer;
  layer.weight_rows.assign(16, util::BitVec(4));
  layer.thresholds.assign(4, 0);
  // Zero weights give every column the same Vmem, so the offsets alone
  // order the scores: columns 1 and 2 tie for the maximum.
  layer.readout_offsets = {0.5f, -1.0f, -1.0f, 3.0f};
  tile.load_layer(layer);
  util::BitVec spikes(16);
  for (std::size_t i = 0; i < 16; i += 2) spikes.set(i);
  (void)tile.burst(spikes);
  const std::vector<float> scores = tile.output_scores();
  EXPECT_EQ(scores[1], scores[2]);
  const auto first_max = static_cast<std::size_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
  EXPECT_EQ(first_max, 1u);
  EXPECT_EQ(tile.winner(), first_max);

  // All-equal scores: both pick column 0.
  layer.readout_offsets.assign(4, 0.0f);
  tile.consume_output();
  tile.load_layer(layer);
  (void)tile.burst(spikes);
  EXPECT_EQ(tile.winner(), 0u);
}

}  // namespace
}  // namespace esam::arch
