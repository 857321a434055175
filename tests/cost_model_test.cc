// Validates the cost model against the closed-form values the paper reports
// for its Table 3 configuration.
#include "model/cost_model.h"

#include <gtest/gtest.h>

#include "model/layout.h"

namespace tickpoint {
namespace {

TEST(HardwareParamsTest, PaperDefaults) {
  const HardwareParams hw = HardwareParams::Paper();
  EXPECT_DOUBLE_EQ(hw.tick_hz, 30.0);
  EXPECT_EQ(hw.object_size, 512u);
  EXPECT_DOUBLE_EQ(hw.mem_bandwidth, 2.2e9);
  EXPECT_DOUBLE_EQ(hw.mem_latency, 100e-9);
  EXPECT_DOUBLE_EQ(hw.lock_overhead, 145e-9);
  EXPECT_DOUBLE_EQ(hw.bit_overhead, 2e-9);
  EXPECT_DOUBLE_EQ(hw.disk_bandwidth, 60e6);
  EXPECT_NEAR(hw.TickSeconds(), 0.03333, 1e-4);
  EXPECT_NEAR(hw.LatencyLimitSeconds(), 0.01667, 1e-4);
}

TEST(LayoutTest, PaperGeometry) {
  const StateLayout layout = StateLayout::Paper();
  EXPECT_EQ(layout.num_cells(), 10000000u);
  EXPECT_EQ(layout.state_bytes(), 40000000u);
  EXPECT_EQ(layout.num_objects(), 78125u);
  EXPECT_EQ(layout.cells_per_object(), 128u);
}

TEST(LayoutTest, GameGeometry) {
  const StateLayout layout = StateLayout::Game();
  EXPECT_EQ(layout.rows, 400128u);
  EXPECT_EQ(layout.cols, 13u);
  EXPECT_EQ(layout.num_cells(), 5201664u);
  EXPECT_EQ(layout.state_bytes(), 20806656u);
  EXPECT_EQ(layout.num_objects(), 40638u);
}

TEST(LayoutTest, ObjectOfCellIsMonotoneAndDense) {
  const StateLayout layout = StateLayout::Small(64, 10);
  ObjectId prev = 0;
  for (CellId c = 0; c < layout.num_cells(); ++c) {
    const ObjectId o = layout.ObjectOfCell(c);
    EXPECT_GE(o, prev);
    EXPECT_LE(o - prev, 1u);
    EXPECT_LT(o, layout.num_objects());
    prev = o;
  }
  // 128 consecutive 4-byte cells share one 512-byte object.
  EXPECT_EQ(layout.ObjectOfCell(0), layout.ObjectOfCell(127));
  EXPECT_NE(layout.ObjectOfCell(0), layout.ObjectOfCell(128));
}

TEST(LayoutTest, ValidRejectsBadGeometry) {
  StateLayout layout = StateLayout::Paper();
  EXPECT_TRUE(layout.Valid());
  // 500 is a multiple of cell_size=4 (500/4=125).
  layout.object_size = 500;
  EXPECT_TRUE(layout.Valid());
  layout.cell_size = 3;  // 500 % 3 != 0
  EXPECT_FALSE(layout.Valid());
  layout = StateLayout::Paper();
  layout.rows = 0;
  EXPECT_FALSE(layout.Valid());
}

TEST(CostModelTest, FullStateCheckpointMatchesPaper) {
  // 40 MB at 60 MB/s ~= 0.667 s -- the constant "0.68 s" checkpoint time of
  // Figure 2(b).
  const CostModel cost{HardwareParams::Paper()};
  const StateLayout layout = StateLayout::Paper();
  EXPECT_NEAR(cost.LogWriteSeconds(layout.num_objects()), 0.6667, 0.02);
  EXPECT_NEAR(cost.DoubleBackupWriteSeconds(layout.num_objects()), 0.6667,
              0.02);
}

TEST(CostModelTest, NaiveSnapshotPauseMatchesPaper) {
  // Copying 40 MB at 2.2 GB/s ~= 18 ms: the ~17 ms pause of Figure 3.
  const CostModel cost{HardwareParams::Paper()};
  const StateLayout layout = StateLayout::Paper();
  const double pause = cost.SyncCopySeconds(layout.num_objects(), 1);
  EXPECT_NEAR(pause, 0.0182, 0.001);
  // The pause exceeds the half-tick latency limit, as the paper argues.
  EXPECT_GT(pause, HardwareParams::Paper().LatencyLimitSeconds());
}

TEST(CostModelTest, SyncCopyChargesPerRun) {
  const CostModel cost{HardwareParams::Paper()};
  const double one_run = cost.SyncCopySeconds(1000, 1);
  const double many_runs = cost.SyncCopySeconds(1000, 1000);
  EXPECT_NEAR(many_runs - one_run, 999 * 100e-9, 1e-12);
  EXPECT_EQ(cost.SyncCopySeconds(0, 0), 0.0);
}

TEST(CostModelTest, CopyOnUpdateTouchBreakdown) {
  // Obit + (Olock + Omem + Sobj/Bmem) = 2 + 145 + 100 + 232.7 ns ~= 480 ns.
  const CostModel cost{HardwareParams::Paper()};
  const double touch = cost.BitTestSeconds() + cost.CopyOnUpdateTouchSeconds();
  EXPECT_NEAR(touch, 479.7e-9, 2e-9);
}

TEST(CostModelTest, DoubleBackupDurationIndependentOfDirtyCount) {
  // "the amount of data written to the backup file is proportional to k, but
  // the elapsed time to write that data is independent of k".
  const CostModel cost{HardwareParams::Paper()};
  const uint64_t n = StateLayout::Paper().num_objects();
  EXPECT_DOUBLE_EQ(cost.DoubleBackupWriteSeconds(n),
                   cost.DoubleBackupWriteSeconds(n));
  // Log writes DO scale with k (n is odd, so allow the half-object slack).
  EXPECT_NEAR(cost.LogWriteSeconds(n / 2), cost.LogWriteSeconds(n) / 2, 1e-5);
}

TEST(CostModelTest, PartialRedoRestoreFormula) {
  const CostModel cost{HardwareParams::Paper()};
  const StateLayout layout = StateLayout::Paper();
  const uint64_t n = layout.num_objects();
  // k = 0: just the full flush -> same as a sequential full read.
  EXPECT_NEAR(cost.PartialRedoRestoreSeconds(0, 9, n),
              cost.SequentialReadSeconds(n), 1e-9);
  // The paper's headline: at k ~= n and C = 9, restore is ~10x a full read
  // (7.2 s total at 256K updates/tick, Figure 2(c)).
  const double restore = cost.PartialRedoRestoreSeconds(
      static_cast<double>(n) * 0.95, 9, n);
  EXPECT_NEAR(restore, 6.4, 0.4);
}

TEST(CostModelTest, UnsortedWritesFarSlowerThanSorted) {
  // The ablation premise: per-object random writes pay a seek each.
  const CostModel cost{HardwareParams::Paper()};
  const uint64_t n = StateLayout::Paper().num_objects();
  EXPECT_GT(cost.UnsortedWriteSeconds(n / 10),
            10 * cost.DoubleBackupWriteSeconds(n));
}

}  // namespace
}  // namespace tickpoint
