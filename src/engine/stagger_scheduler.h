// Checkpoint schedule for K shards sharing one persistence disk (paper
// Section 8 future work, previously only a cost-model projection in
// bench_shard_stagger).
//
// With synchronized starts every shard writes at Bdisk/K and each
// checkpoint stretches K-fold. Staggering offsets shard i's first
// checkpoint by i * period / K ticks, so at most one shard is writing at a
// time whenever one solo checkpoint fits in period / K ticks -- the
// bandwidth-partitioning fix, now driven by the real engine instead of the
// model.
//
// The fixed schedule assumes every checkpoint fits in its period / K slot.
// Adaptive mode drops that assumption: the scheduler ingests measured
// per-checkpoint write times (an EWMA per shard, both in ticks and wall
// seconds), plans each shard's next start past the estimated flush windows
// of the other shards, and defers any start that would put more than
// `disk_budget` flushes on the disk at once. Offsets therefore widen when a
// shard's writes slow down and drift back toward the fixed i * period / K
// schedule when they speed up again.
#ifndef TICKPOINT_ENGINE_STAGGER_SCHEDULER_H_
#define TICKPOINT_ENGINE_STAGGER_SCHEDULER_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace tickpoint {

/// Shard checkpoint schedule parameters.
struct StaggerConfig {
  /// K: shards sharing the persistence disk.
  uint32_t num_shards = 1;
  /// Ticks between one shard's consecutive checkpoint starts.
  uint64_t period_ticks = 8;
  /// true: shard i starts at tick i * period / K, then every period ticks.
  /// false: every shard starts at tick 0, then every period ticks
  /// (the synchronized baseline the bench compares against).
  bool staggered = true;
  /// Learn per-shard write durations and move starts so that at most
  /// `disk_budget` shards flush concurrently (see header comment). The
  /// fixed offsets above seed the adaptive plan.
  bool adaptive = false;
  /// Adaptive mode: max shards allowed to flush at the same time.
  uint32_t disk_budget = 1;
  /// Adaptive mode: EWMA smoothing factor for measured write durations.
  double ewma_alpha = 0.4;

  bool Valid() const {
    return num_shards > 0 && period_ticks > 0 && disk_budget > 0 &&
           ewma_alpha > 0.0 && ewma_alpha <= 1.0;
  }
};

/// Fixed mode: pure schedule arithmetic. Adaptive mode: a stateful planner;
/// decisions and observations may come from different threads (the facade
/// schedules, per-shard mutator threads report completions), so the
/// adaptive state is mutex-guarded.
class StaggerScheduler {
 public:
  explicit StaggerScheduler(const StaggerConfig& config);

  const StaggerConfig& config() const { return config_; }

  /// First tick at which `shard` checkpoints under the fixed schedule
  /// (also the adaptive plan's initial offset).
  uint64_t OffsetTicks(uint32_t shard) const;

  /// True if `shard` should begin a checkpoint at the end of tick `tick`.
  /// Adaptive mode: this is a state transition -- a true return reserves
  /// one unit of disk budget until ObserveCheckpointEnd(shard, ...), and a
  /// budget-exhausted shard is deferred to the next tick -- so call it
  /// exactly once per (shard, tick).
  bool ShouldCheckpoint(uint32_t shard, uint64_t tick);

  /// First fixed-schedule checkpoint tick of `shard` STRICTLY AFTER `tick`:
  /// the next start. A start landing on `tick` itself is "now", answered by
  /// ShouldCheckpoint(shard, tick), never by this query.
  uint64_t NextCheckpointTick(uint32_t shard, uint64_t tick) const;

  /// Adaptive mode: reports that the checkpoint `shard` started (the
  /// ShouldCheckpoint call that returned true) finished during the end of
  /// tick `end_tick` after `write_seconds` of wall time. Submit and
  /// completion are split across ticks: `end_tick` is
  /// the boundary that reaped the finished job (ticks later than the
  /// start) and `write_seconds` spans the whole submit-to-completion
  /// window, so the EWMAs keep estimating the true flush occupancy the
  /// budget planner reserves against. Releases the shard's disk-budget
  /// reservation and feeds the EWMAs. No-op in fixed mode. Thread-safe.
  void ObserveCheckpointEnd(uint32_t shard, uint64_t end_tick,
                            double write_seconds);

  /// A consistent cut just checkpointed EVERY shard at `cut_tick`, outside
  /// this scheduler's plan. Re-seeds each adaptive next-start at
  /// cut_tick + 1 + OffsetTicks(shard) (keeping any later planned start),
  /// so the staggered cadence resumes instead of every shard coming due at
  /// once right after the cut. No-op in fixed mode, whose arithmetic
  /// schedule resumes by itself. Thread-safe.
  void RealignAfterCut(uint64_t cut_tick);

  /// `shard`'s partition just migrated to a different slot (possibly a
  /// different disk): the learned write-time EWMAs describe the OLD
  /// placement, so zero them -- the next plan falls back to the fixed
  /// period / K slot width until the new slot reports real measurements.
  /// Also releases any in-flight disk-budget reservation (migration
  /// swallows an in-flight checkpoint, and its completion will never be
  /// reported) and pushes next_start past `tick` so the fresh slot is not
  /// immediately due. Thread-safe; no-op in fixed mode.
  void ResetShard(uint32_t shard, uint64_t tick);

  // ---- Introspection (tests, benches) ----

  /// Checkpoints currently holding a disk-budget reservation.
  uint32_t inflight() const;
  /// High-water mark of `inflight()`; never exceeds disk_budget.
  uint32_t max_concurrent_starts() const;
  /// Starts pushed back because the disk budget was exhausted (either all
  /// slots in flight, or the free slots reserved for older due claims).
  uint64_t deferrals() const;
  /// Smoothed write duration of `shard` in ticks (0 before the first
  /// observation).
  double EwmaTicks(uint32_t shard) const;
  /// Smoothed write duration of `shard` in wall seconds.
  double EwmaWriteSeconds(uint32_t shard) const;

 private:
  struct ShardPlan {
    uint64_t next_start = 0;
    bool inflight = false;
    uint64_t started_at = 0;
    double ewma_ticks = 0.0;  // 0 = no observation yet
    double ewma_seconds = 0.0;
  };

  /// Estimated flush duration of `shard` in ticks; before any observation,
  /// the fixed schedule's slot width (period / K).
  uint64_t EstimateTicksLocked(uint32_t shard) const;
  /// Earliest tick >= start_tick + period where starting `shard` keeps the
  /// planned flush-window overlap below the disk budget.
  uint64_t PlanNextStartLocked(uint32_t shard, uint64_t start_tick) const;

  StaggerConfig config_;

  mutable std::mutex mu_;
  std::vector<ShardPlan> plans_;
  uint32_t inflight_ = 0;
  uint32_t max_concurrent_starts_ = 0;
  uint64_t deferrals_ = 0;
};

}  // namespace tickpoint

#endif  // TICKPOINT_ENGINE_STAGGER_SCHEDULER_H_
