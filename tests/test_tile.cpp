// Tests for the Tile: decomposition into arrays/arbiters, the cycle-level
// drain behaviour, firing semantics, the event-count burst against the
// per-cycle step loop, copy semantics, and the physical models.
#include <gtest/gtest.h>

#include "esam/arch/tile.hpp"
#include "esam/sram/faults.hpp"
#include "esam/tech/calibration.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"

namespace esam::arch {
namespace {

nn::SnnLayer random_layer(std::size_t in, std::size_t out, std::uint64_t seed,
                          std::int32_t vth = 0) {
  util::Rng rng(seed);
  nn::SnnLayer layer;
  layer.weight_rows.assign(in, util::BitVec(out));
  layer.thresholds.assign(out, vth);
  layer.readout_offsets.assign(out, 0.0f);
  for (auto& row : layer.weight_rows) {
    for (std::size_t j = 0; j < out; ++j) {
      if (rng.bernoulli(0.5)) row.set(j);
    }
  }
  return layer;
}

TileConfig config_for(std::size_t in, std::size_t out,
                      sram::CellKind cell = sram::CellKind::k1RW4R) {
  TileConfig cfg;
  cfg.inputs = in;
  cfg.outputs = out;
  cfg.cell = cell;
  return cfg;
}

TEST(Tile, DecomposesIntoRowAndColGroups) {
  // Paper sec 4.4.2: a 768-input layer becomes 6 row-groups, each with its
  // own 128-wide arbiter.
  const Tile t768(tech::imec3nm(), config_for(768, 256));
  EXPECT_EQ(t768.row_groups(), 6u);
  EXPECT_EQ(t768.col_groups(), 2u);
  const Tile t256(tech::imec3nm(), config_for(256, 10));
  EXPECT_EQ(t256.row_groups(), 2u);
  EXPECT_EQ(t256.col_groups(), 1u);
  const Tile t128(tech::imec3nm(), config_for(128, 128));
  EXPECT_EQ(t128.row_groups(), 1u);
  EXPECT_EQ(t128.col_groups(), 1u);
}

TEST(Tile, RejectsEmptyShape) {
  EXPECT_THROW(Tile(tech::imec3nm(), config_for(0, 10)), std::invalid_argument);
  EXPECT_THROW(Tile(tech::imec3nm(), config_for(10, 0)), std::invalid_argument);
}

TEST(Tile, LoadLayerValidatesShape) {
  Tile t(tech::imec3nm(), config_for(128, 64));
  EXPECT_THROW(t.load_layer(random_layer(128, 65, 1)), std::invalid_argument);
  EXPECT_THROW(t.load_layer(random_layer(127, 64, 1)), std::invalid_argument);
  EXPECT_NO_THROW(t.load_layer(random_layer(128, 64, 1)));
}

TEST(Tile, WeightsLandInTheRightMacros) {
  Tile t(tech::imec3nm(), config_for(256, 256));
  nn::SnnLayer layer = random_layer(256, 256, 7);
  t.load_layer(layer);
  util::Rng rng(8);
  for (int probe = 0; probe < 200; ++probe) {
    const auto i = static_cast<std::size_t>(rng.uniform_index(256));
    const auto j = static_cast<std::size_t>(rng.uniform_index(256));
    const bool expected = layer.weight_rows[i].test(j);
    EXPECT_EQ(t.macro(i / 128, j / 128).peek(i % 128, j % 128), expected);
  }
}

TEST(Tile, DrainTakesCeilSpikesOverPortsCycles) {
  // One row-group, 4 ports, k spikes -> ceil(k/4) cycles of accumulation;
  // firing happens in the same cycle as the last grants.
  Tile t(tech::imec3nm(), config_for(128, 16));
  t.load_layer(random_layer(128, 16, 3, /*vth=*/1000));  // never fires
  util::BitVec in(128);
  for (std::size_t i = 0; i < 9; ++i) in.set(i * 13);
  t.start_inference(in);
  std::size_t cycles = 0;
  while (t.busy()) {
    t.step();
    ++cycles;
    ASSERT_LE(cycles, 10u);
  }
  EXPECT_EQ(cycles, 3u);  // ceil(9/4)
  EXPECT_TRUE(t.output_ready());
  EXPECT_EQ(t.stats().spikes_served, 9u);
}

TEST(Tile, MultipleRowGroupsDrainInParallel) {
  // 256 inputs = 2 arbiters; 8 spikes split 4/4 drain in one cycle at p=4,
  // but 8 spikes all in one group need two cycles.
  Tile t(tech::imec3nm(), config_for(256, 16));
  t.load_layer(random_layer(256, 16, 4, 1000));

  util::BitVec balanced(256);
  for (std::size_t i = 0; i < 4; ++i) {
    balanced.set(i);
    balanced.set(128 + i);
  }
  t.start_inference(balanced);
  t.step();
  EXPECT_FALSE(t.busy());  // drained in one cycle
  (void)t.take_output();

  util::BitVec skewed(256);
  for (std::size_t i = 0; i < 8; ++i) skewed.set(i);  // all in group 0
  t.start_inference(skewed);
  t.step();
  EXPECT_TRUE(t.busy());
  t.step();
  EXPECT_FALSE(t.busy());
}

TEST(Tile, EmptyInputFiresImmediately) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 5, /*vth=*/0));
  t.start_inference(util::BitVec(128));
  t.step();
  EXPECT_FALSE(t.busy());
  EXPECT_TRUE(t.output_ready());
  // Vth = 0 <= Vmem = 0: every neuron fires.
  EXPECT_EQ(t.take_output().count(), 8u);
}

TEST(Tile, AccumulationMatchesReferenceModel) {
  nn::SnnLayer layer = random_layer(256, 256, 11, /*vth=*/2000);
  // Large Vth: no firing, so output_vmem is the raw accumulation.
  TileConfig cfg = config_for(256, 256);
  cfg.is_output_layer = true;
  Tile out_tile(tech::imec3nm(), cfg);
  out_tile.load_layer(layer);

  util::Rng rng(12);
  util::BitVec spikes(256);
  for (std::size_t i = 0; i < 256; ++i) {
    if (rng.bernoulli(0.3)) spikes.set(i);
  }
  out_tile.start_inference(spikes);
  while (out_tile.busy()) out_tile.step();

  const auto expected = nn::SnnNetwork::accumulate(layer, spikes);
  const auto got = out_tile.output_vmem();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t j = 0; j < expected.size(); ++j) {
    ASSERT_EQ(got[j], expected[j]) << "neuron " << j;
  }
}

TEST(Tile, StartWhileBusyOrOutputPendingThrows) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 6, 1000));
  util::BitVec in(128);
  in.set(0);
  in.set(64);
  t.start_inference(in);
  EXPECT_THROW(t.start_inference(in), std::logic_error);
  t.step();  // drains (2 spikes < 4 ports) and fires
  ASSERT_TRUE(t.output_ready());
  EXPECT_THROW(t.start_inference(in), std::logic_error);
  (void)t.take_output();
  EXPECT_NO_THROW(t.start_inference(in));
}

TEST(Tile, TakeOutputGuards) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 7, 1000));
  EXPECT_THROW((void)t.take_output(), std::logic_error);
  TileConfig cfg = config_for(128, 8);
  cfg.is_output_layer = true;
  Tile out_tile(tech::imec3nm(), cfg);
  out_tile.load_layer(random_layer(128, 8, 7, 1000));
  out_tile.start_inference(util::BitVec(128));
  out_tile.step();
  EXPECT_THROW((void)out_tile.take_output(), std::logic_error);  // use Vmem
  EXPECT_NO_THROW(out_tile.consume_output());
}

TEST(Tile, ClockPeriodFollowsTable2) {
  for (std::size_t i = 0; i < 5; ++i) {
    const Tile t(tech::imec3nm(), config_for(128, 8, sram::kAllCellKinds[i]));
    const double expected = std::max(tech::calib::kTable2ArbiterNs[i],
                                     tech::calib::kTable2SramNeuronNs[i]);
    EXPECT_NEAR(util::in_nanoseconds(t.clock_period()), expected, 1e-9)
        << sram::to_string(sram::kAllCellKinds[i]);
  }
}

TEST(Tile, EnergyPostedDuringExecution) {
  Tile t(tech::imec3nm(), config_for(128, 128));
  t.load_layer(random_layer(128, 128, 8, 1000));
  util::EnergyLedger ledger;
  t.attach_ledger(&ledger);
  util::BitVec in(128);
  for (std::size_t i = 0; i < 12; ++i) in.set(i * 10);
  t.start_inference(in);
  while (t.busy()) t.step();
  EXPECT_GT(ledger.energy(util::EnergyCategory::kSramRead).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kArbiter).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kNeuron).base(), 0.0);
  EXPECT_GT(ledger.energy(util::EnergyCategory::kFabric).base(), 0.0);
}

// --- event-count burst vs the caller-driven step loop ----------------------

util::BitVec random_spikes(std::size_t width, double density,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  util::BitVec v(width);
  for (std::size_t i = 0; i < width; ++i) {
    if (rng.bernoulli(density)) v.set(i);
  }
  return v;
}

/// One inference driven cycle by cycle, as the lockstep engine drives it.
void step_loop(Tile& t, const util::BitVec& in) {
  t.start_inference(in);
  while (t.busy()) t.step();
}

/// Hands the finished inference's output on (hidden or readout tile).
void retire(Tile& t) {
  if (t.config().is_output_layer) {
    t.consume_output();
  } else {
    (void)t.take_output();
  }
}

void expect_same_neurons(const Tile& a, const Tile& b) {
  EXPECT_EQ(a.fire_vmem(), b.fire_vmem());
  EXPECT_EQ(a.last_output(), b.last_output());
  EXPECT_EQ(a.output_vmem(), b.output_vmem());
}

/// Exact equality of every result, counter and ledger category.
void expect_identical(const Tile& a, const util::EnergyLedger& la,
                      const Tile& b, const util::EnergyLedger& lb) {
  expect_same_neurons(a, b);
  EXPECT_EQ(a.stats().busy_cycles, b.stats().busy_cycles);
  EXPECT_EQ(a.stats().spikes_served, b.stats().spikes_served);
  EXPECT_EQ(a.stats().inferences, b.stats().inferences);
  EXPECT_EQ(a.stats().row_reads, b.stats().row_reads);
  for (std::size_t rg = 0; rg < a.row_groups(); ++rg) {
    for (std::size_t cg = 0; cg < a.col_groups(); ++cg) {
      const sram::MacroStats& ma = a.macro(rg, cg).stats();
      const sram::MacroStats& mb = b.macro(rg, cg).stats();
      EXPECT_EQ(ma.inference_row_reads, mb.inference_row_reads);
      EXPECT_EQ(ma.rw_read_accesses, mb.rw_read_accesses);
      EXPECT_EQ(ma.rw_write_accesses, mb.rw_write_accesses);
    }
  }
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(util::EnergyCategory::kCount); ++c) {
    const auto cat = static_cast<util::EnergyCategory>(c);
    EXPECT_EQ(la.energy(cat).base(), lb.energy(cat).base())
        << util::to_string(cat);
  }
}

/// burst() on `t` against the step loop on a fresh clone of `t`, over a run
/// of inferences: empty, sparse, dense and all-spiking inputs.
void expect_burst_matches_step_loop(const Tile& t, std::uint64_t seed) {
  Tile burst_tile = t;
  Tile step_tile = t;
  util::EnergyLedger burst_ledger;
  util::EnergyLedger step_ledger;
  burst_tile.attach_ledger(&burst_ledger);
  step_tile.attach_ledger(&step_ledger);
  const std::size_t in = t.config().inputs;
  std::vector<util::BitVec> inputs = {util::BitVec(in),
                                      random_spikes(in, 0.2, seed),
                                      random_spikes(in, 0.7, seed + 1)};
  inputs.emplace_back(in);
  for (std::size_t i = 0; i < in; ++i) inputs.back().set(i);
  for (const util::BitVec& x : inputs) {
    const std::uint64_t cycles_before = step_tile.stats().busy_cycles;
    const std::uint64_t cycles = burst_tile.burst(x);
    step_loop(step_tile, x);
    expect_identical(burst_tile, burst_ledger, step_tile, step_ledger);
    EXPECT_EQ(cycles, step_tile.stats().busy_cycles - cycles_before);
    retire(burst_tile);
    retire(step_tile);
  }
}

TEST(TileEventCount, BurstMatchesStepLoopExactly) {
  // Fig. 8-like shapes around the 128-row array boundary, hidden (256
  // outputs) and readout (10 outputs) tiles, with and without stuck cells.
  std::uint64_t seed = 100;
  for (const sram::CellKind cell :
       {sram::CellKind::k1RW, sram::CellKind::k1RW4R}) {
    for (const std::size_t in : {1u, 127u, 128u, 129u, 768u}) {
      for (const std::size_t out : {10u, 256u}) {
        for (const bool faults : {false, true}) {
          SCOPED_TRACE(std::string(sram::to_string(cell)) + " " +
                       std::to_string(in) + "x" + std::to_string(out) +
                       (faults ? " faulty" : ""));
          TileConfig cfg = config_for(in, out, cell);
          cfg.is_output_layer = out == 10;
          Tile t(tech::imec3nm(), cfg);
          ASSERT_TRUE(t.event_count());
          t.load_layer(random_layer(in, out, ++seed));
          if (faults) {
            util::Rng rng(++seed);
            for (std::size_t rg = 0; rg < t.row_groups(); ++rg) {
              for (std::size_t cg = 0; cg < t.col_groups(); ++cg) {
                sram::SramMacro& m = t.macro(rg, cg);
                m.apply_faults(sram::sample_fault_map(
                    m.geometry().rows, m.geometry().cols, 0.05, rng));
              }
            }
          }
          expect_burst_matches_step_loop(t, ++seed);
        }
      }
    }
  }
}

TEST(TileEventCount, GuardFollowsTheVmemRange) {
  TileConfig cfg = config_for(127, 8);
  cfg.neuron.vmem_bits = 8;  // Vmem in [-128, 127]
  EXPECT_TRUE(Tile(tech::imec3nm(), cfg).event_count());
  cfg.inputs = 128;  // a full positive sum would clamp at 127
  EXPECT_FALSE(Tile(tech::imec3nm(), cfg).event_count());
  cfg.inputs = 127;
  cfg.carry_membrane = true;
  EXPECT_FALSE(Tile(tech::imec3nm(), cfg).event_count());
  EXPECT_TRUE(Tile(tech::imec3nm(), config_for(768, 256)).event_count());
}

TEST(TileEventCount, SaturatingFanInClampsLikeTheStepLoop) {
  // 6-bit Vmem spans [-32, 31] but 128 inputs can sum to +-128, so partial
  // sums clamp and the order of the +-1 contributions matters. Column 0 is
  // all ones; column 1 holds ones on the rows granted first, column 2 on
  // the rows granted last (fixed priority: lowest row first). Per-cycle
  // clamping leaves 31, -32 and 31; one inference-wide sum would leave 31,
  // 0 and 0.
  TileConfig cfg = config_for(128, 3, sram::CellKind::k1RW4R);
  cfg.neuron.vmem_bits = 6;
  cfg.is_output_layer = true;
  Tile t(tech::imec3nm(), cfg);
  ASSERT_FALSE(t.event_count());
  nn::SnnLayer layer;
  layer.weight_rows.assign(128, util::BitVec(3));
  layer.thresholds.assign(3, 0);
  layer.readout_offsets.assign(3, 0.0f);
  for (std::size_t i = 0; i < 128; ++i) {
    layer.weight_rows[i].set(0);
    layer.weight_rows[i].set(i < 64 ? 1 : 2);
  }
  t.load_layer(layer);
  util::BitVec all(128);
  for (std::size_t i = 0; i < 128; ++i) all.set(i);

  Tile stepped = t;
  (void)t.burst(all);
  step_loop(stepped, all);
  EXPECT_EQ(t.output_vmem(), (std::vector<std::int32_t>{31, -32, 31}));
  expect_same_neurons(t, stepped);
}

TEST(TileEventCount, CarriedMembraneMatchesStepLoop) {
  // Rate-coded operation: the membrane carries across inferences and a
  // 6-bit Vmem ([-32, 31]) saturates over a few timesteps, so burst() must
  // stay on the per-cycle path.
  for (const bool readout : {false, true}) {
    TileConfig cfg = config_for(256, 64);
    cfg.carry_membrane = true;
    cfg.is_output_layer = readout;
    cfg.neuron.vmem_bits = 6;
    Tile t(tech::imec3nm(), cfg);
    ASSERT_FALSE(t.event_count());
    t.load_layer(random_layer(256, 64, 31, /*vth=*/20));
    bool clamped = false;
    Tile stepped = t;
    util::EnergyLedger burst_ledger;
    util::EnergyLedger step_ledger;
    t.attach_ledger(&burst_ledger);
    stepped.attach_ledger(&step_ledger);
    for (std::uint64_t step = 0; step < 8; ++step) {
      const util::BitVec x = random_spikes(256, 0.4, 40 + step);
      (void)t.burst(x);
      step_loop(stepped, x);
      expect_identical(t, burst_ledger, stepped, step_ledger);
      for (const std::int32_t v : t.fire_vmem()) {
        clamped = clamped || v == 31 || v == -32;
      }
      retire(t);
      retire(stepped);
    }
    EXPECT_TRUE(clamped);
  }
}

TEST(TileEventCount, StepLoopAfterBurstMatchesFreshTile) {
  Tile t(tech::imec3nm(), config_for(768, 256, sram::CellKind::k1RW));
  t.load_layer(random_layer(768, 256, 51));
  Tile fresh = t;
  (void)t.burst(random_spikes(768, 0.3, 52));
  (void)t.take_output();
  const util::BitVec x = random_spikes(768, 0.2, 53);
  step_loop(t, x);
  step_loop(fresh, x);
  expect_same_neurons(t, fresh);
}

TEST(Tile, CopyPostsNothingToTheSourceLedger) {
  Tile t(tech::imec3nm(), config_for(256, 128));
  t.load_layer(random_layer(256, 128, 61));
  util::EnergyLedger ledger;
  t.attach_ledger(&ledger);
  const util::BitVec x = random_spikes(256, 0.3, 62);

  Tile copied(t);
  Tile assigned(tech::imec3nm(), config_for(256, 128));
  assigned = t;
  for (Tile* c : {&copied, &assigned}) {
    (void)c->burst(x);
    (void)c->take_output();
    step_loop(*c, x);
    (void)c->take_output();
    c->macro(0, 0).write_column(3, c->macro(0, 0).read_column(3));
  }
  EXPECT_EQ(ledger.total_energy().base(), 0.0);

  // The source keeps its own attachment.
  (void)t.burst(x);
  EXPECT_GT(ledger.total_energy().base(), 0.0);
}

TEST(Tile, AreaAndLeakageScaleWithCell) {
  const Tile base(tech::imec3nm(), config_for(128, 128, sram::CellKind::k1RW));
  const Tile four(tech::imec3nm(),
                  config_for(128, 128, sram::CellKind::k1RW4R));
  EXPECT_GT(util::in_square_microns(four.area()),
            util::in_square_microns(base.area()) * 1.8);
  EXPECT_GT(four.leakage().base(), base.leakage().base());
  EXPECT_GT(four.flop_count(), base.flop_count());
}

TEST(Tile, StatsAccumulate) {
  Tile t(tech::imec3nm(), config_for(128, 8));
  t.load_layer(random_layer(128, 8, 9, 1000));
  util::BitVec in(128);
  in.set(0);
  t.start_inference(in);
  while (t.busy()) t.step();
  (void)t.take_output();
  t.start_inference(in);
  while (t.busy()) t.step();
  EXPECT_EQ(t.stats().inferences, 2u);
  EXPECT_EQ(t.stats().spikes_served, 2u);
  EXPECT_EQ(t.stats().row_reads, 2u);
  EXPECT_GE(t.stats().busy_cycles, 2u);
}

}  // namespace
}  // namespace esam::arch
