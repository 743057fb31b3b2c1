// Tests for stochastic STDP and the online-learning engine, including the
// sec. 4.4.1 access-pattern costs.
#include <gtest/gtest.h>

#include "esam/learning/online_learner.hpp"
#include "esam/learning/stdp.hpp"
#include "esam/tech/technology.hpp"
#include "esam/util/rng.hpp"
#include "learner_events.hpp"

namespace esam::learning {
namespace {

using util::BitVec;

TEST(Stdp, ProbabilityValidation) {
  EXPECT_THROW(StochasticStdp({.p_potentiation = 1.5}), std::invalid_argument);
  EXPECT_THROW(StochasticStdp({.p_potentiation = 0.1, .p_depression = -0.2}),
               std::invalid_argument);
}

TEST(Stdp, WidthMismatchThrows) {
  StochasticStdp rule({});
  EXPECT_THROW((void)rule.potentiate(BitVec(8), BitVec(9)),
               std::invalid_argument);
}

TEST(Stdp, DeterministicPotentiationAtProbabilityOne) {
  StochasticStdp rule({.p_potentiation = 1.0, .p_depression = 1.0});
  const BitVec weights = BitVec::from_string("0101");
  const BitVec pre = BitVec::from_string("1100");
  const BitVec updated = rule.potentiate(weights, pre);
  // Spiking pres (0,1) set to 1; silent pres (2,3) cleared.
  EXPECT_EQ(updated.to_string(), "1100");
}

TEST(Stdp, DepressInvertsDirections) {
  StochasticStdp rule({.p_potentiation = 1.0, .p_depression = 1.0});
  const BitVec weights = BitVec::from_string("0101");
  const BitVec pre = BitVec::from_string("1100");
  const BitVec updated = rule.depress(weights, pre);
  // Spiking pres cleared, silent pres set.
  EXPECT_EQ(updated.to_string(), "0011");
}

TEST(Stdp, ZeroProbabilityLeavesWeightsUntouched) {
  StochasticStdp rule({.p_potentiation = 0.0, .p_depression = 0.0});
  const BitVec weights = BitVec::from_string("011010");
  const BitVec pre = BitVec::from_string("111000");
  EXPECT_EQ(rule.potentiate(weights, pre), weights);
  EXPECT_EQ(rule.depress(weights, pre), weights);
}

TEST(Stdp, StochasticRateApproximatesProbability) {
  StochasticStdp rule({.p_potentiation = 0.3, .p_depression = 0.0, .seed = 5});
  const std::size_t n = 4000;
  BitVec weights(n);  // all zero
  BitVec pre(n);
  pre.fill();  // every pre spiked
  const BitVec updated = rule.potentiate(weights, pre);
  EXPECT_NEAR(static_cast<double>(updated.count()) / static_cast<double>(n),
              0.3, 0.04);
}

TEST(Stdp, OnlyTouchedBitsChange) {
  StochasticStdp rule({.p_potentiation = 1.0, .p_depression = 0.0});
  const BitVec weights = BitVec::from_string("00001111");
  const BitVec pre = BitVec::from_string("10000000");
  const BitVec updated = rule.potentiate(weights, pre);
  // Only bit 0 (spiking, p_pot=1) can change; silent bits stay (p_dep=0).
  EXPECT_EQ(updated.to_string(), "10001111");
}

// --- OnlineLearner -----------------------------------------------------------

arch::Tile make_tile(sram::CellKind cell, std::size_t in = 128,
                     std::size_t out = 16) {
  arch::TileConfig cfg;
  cfg.inputs = in;
  cfg.outputs = out;
  cfg.cell = cell;
  return arch::Tile(tech::imec3nm(), cfg);
}

nn::SnnLayer zero_layer(std::size_t in, std::size_t out) {
  nn::SnnLayer l;
  l.weight_rows.assign(in, util::BitVec(out));
  l.thresholds.assign(out, 0);
  l.readout_offsets.assign(out, 0.0f);
  return l;
}

TEST(OnlineLearner, RewardPotentiatesTargetColumn) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R);
  tile.load_layer(zero_layer(128, 16));
  OnlineLearner learner(tile, {.p_potentiation = 1.0, .p_depression = 0.0});
  BitVec pre(128);
  pre.set(3);
  pre.set(77);
  testutil::reward(learner, 5, pre);
  EXPECT_TRUE(tile.macro(0, 0).peek(3, 5));
  EXPECT_TRUE(tile.macro(0, 0).peek(77, 5));
  // Other synapses untouched.
  EXPECT_FALSE(tile.macro(0, 0).peek(4, 5));
  EXPECT_FALSE(tile.macro(0, 0).peek(3, 6));
  EXPECT_EQ(learner.stats().column_updates, 1u);
  // Two 0->1 flips move the column sum by +4, the readout offset by +2.
  EXPECT_FLOAT_EQ(tile.readout_offset(5), 2.0f);
  EXPECT_FLOAT_EQ(tile.readout_offset(6), 0.0f);
}

TEST(OnlineLearner, OffsetTracksFaultMaskedWritesNotIntendedOnes) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R);
  tile.load_layer(zero_layer(128, 16));
  // Cell (3, 5) is stuck at 0: the potentiation write to it is lost, so the
  // observable column sum -- and hence the readout offset -- must only move
  // by the one flip that actually stuck.
  sram::FaultMap map(128, 16);
  map.stuck_at_zero.set(3 * 16 + 5);
  tile.macro(0, 0).apply_faults(map);

  OnlineLearner learner(tile, {.p_potentiation = 1.0, .p_depression = 0.0});
  BitVec pre(128);
  pre.set(3);
  pre.set(77);
  testutil::reward(learner, 5, pre);
  EXPECT_FALSE(tile.macro(0, 0).peek(3, 5));  // write silently lost
  EXPECT_TRUE(tile.macro(0, 0).peek(77, 5));
  EXPECT_FLOAT_EQ(tile.readout_offset(5), 1.0f);
}

TEST(OnlineLearner, PunishClearsSpikingSynapses) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R);
  nn::SnnLayer layer = zero_layer(128, 16);
  for (auto& row : layer.weight_rows) row.fill();
  tile.load_layer(layer);
  OnlineLearner learner(tile, {.p_potentiation = 1.0, .p_depression = 0.0});
  BitVec pre(128);
  pre.set(10);
  testutil::punish(learner, 2, pre);
  EXPECT_FALSE(tile.macro(0, 0).peek(10, 2));
  EXPECT_TRUE(tile.macro(0, 0).peek(11, 2));
}

TEST(OnlineLearner, SpansRowGroups) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R, 256, 16);
  tile.load_layer(zero_layer(256, 16));
  OnlineLearner learner(tile, {.p_potentiation = 1.0, .p_depression = 0.0});
  BitVec pre(256);
  pre.set(5);     // row-group 0
  pre.set(200);   // row-group 1
  testutil::reward(learner, 7, pre);
  EXPECT_TRUE(tile.macro(0, 0).peek(5, 7));
  EXPECT_TRUE(tile.macro(1, 0).peek(200 - 128, 7));
}

TEST(OnlineLearner, ColumnAddressingAcrossColGroups) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R, 128, 256);
  tile.load_layer(zero_layer(128, 256));
  OnlineLearner learner(tile, {.p_potentiation = 1.0, .p_depression = 0.0});
  BitVec pre(128);
  pre.set(0);
  // Column 200 lives in col-group 1, local column 72.
  testutil::reward(learner, 200, pre);
  EXPECT_TRUE(tile.macro(0, 1).peek(0, 72));
  EXPECT_FALSE(tile.macro(0, 0).peek(0, 72));
}

TEST(OnlineLearner, InputValidation) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R);
  tile.load_layer(zero_layer(128, 16));
  OnlineLearner learner(tile, {});
  EXPECT_THROW(testutil::reward(learner, 16, BitVec(128)),
               std::out_of_range);
  EXPECT_THROW(testutil::reward(learner, 0, BitVec(127)),
               std::invalid_argument);
}

TEST(OnlineLearner, TransposableCellLearnsFasterThanBaseline) {
  // The sec. 4.4.1 comparison, end to end on full 128x128 arrays: per column
  // update the 1RW+4R transposed port is ~14x faster than sweeping rows on
  // the 6T baseline ((9.9 + 8.04) ns vs 257.8 ns).
  arch::Tile fast_tile = make_tile(sram::CellKind::k1RW4R, 128, 128);
  fast_tile.load_layer(zero_layer(128, 128));
  OnlineLearner fast(fast_tile, {.seed = 7});

  arch::Tile slow_tile = make_tile(sram::CellKind::k1RW, 128, 128);
  slow_tile.load_layer(zero_layer(128, 128));
  OnlineLearner slow(slow_tile, {.seed = 7});

  BitVec pre(128);
  for (std::size_t i = 0; i < 128; i += 3) pre.set(i);
  for (std::size_t j = 0; j < 8; ++j) {
    testutil::reward(fast, j, pre);
    testutil::reward(slow, j, pre);
  }
  const double speedup = util::in_nanoseconds(slow.stats().time) /
                         util::in_nanoseconds(fast.stats().time);
  EXPECT_NEAR(speedup, 257.8 / (9.9 + 8.04), 1.0);
  // Identical functional result for the same seed and rule.
  for (std::size_t r = 0; r < 128; ++r) {
    for (std::size_t j = 0; j < 8; ++j) {
      ASSERT_EQ(fast_tile.macro(0, 0).peek(r, j),
                slow_tile.macro(0, 0).peek(r, j));
    }
  }
}

TEST(OnlineLearner, UnalignedRowGroupSlicesUpdateCorrectly) {
  // max_array_dim 48 puts row-group boundaries off the 64-bit word grid, so
  // the word-packed BitVec::slice in update_column must funnel-shift.
  arch::TileConfig cfg;
  cfg.inputs = 96;
  cfg.outputs = 8;
  cfg.cell = sram::CellKind::k1RW4R;
  cfg.max_array_dim = 48;
  arch::Tile tile(tech::imec3nm(), cfg);
  tile.load_layer(zero_layer(96, 8));
  OnlineLearner learner(tile, {.p_potentiation = 1.0, .p_depression = 0.0});
  BitVec pre(96);
  pre.set(47);  // last row of row-group 0
  pre.set(48);  // first row of row-group 1
  pre.set(95);  // last row of row-group 1
  testutil::reward(learner, 2, pre);
  EXPECT_TRUE(tile.macro(0, 0).peek(47, 2));
  EXPECT_TRUE(tile.macro(1, 0).peek(0, 2));
  EXPECT_TRUE(tile.macro(1, 0).peek(47, 2));
  EXPECT_FALSE(tile.macro(0, 0).peek(0, 2));
  EXPECT_FALSE(tile.macro(1, 0).peek(1, 2));
}

TEST(OnlineLearner, ExposesItsStdpConfig) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R);
  tile.load_layer(zero_layer(128, 16));
  OnlineLearner learner(tile, {.p_potentiation = 0.25, .seed = 77});
  EXPECT_DOUBLE_EQ(learner.config().p_potentiation, 0.25);
  EXPECT_EQ(learner.config().seed, 77u);
}

TEST(OnlineLearner, StatsResetWorks) {
  arch::Tile tile = make_tile(sram::CellKind::k1RW4R);
  tile.load_layer(zero_layer(128, 16));
  OnlineLearner learner(tile, {});
  testutil::reward(learner, 0, BitVec(128));
  EXPECT_EQ(learner.stats().column_updates, 1u);
  EXPECT_GT(learner.stats().energy.base(), 0.0);
  learner.reset_stats();
  EXPECT_EQ(learner.stats().column_updates, 0u);
  EXPECT_EQ(learner.stats().energy.base(), 0.0);
}

}  // namespace
}  // namespace esam::learning
