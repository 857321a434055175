#include "engine/rebalancer.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "engine/sharded_engine.h"

namespace tickpoint {

Rebalancer::Rebalancer(const RebalancePolicy& policy,
                       const ShardedEngine& engine)
    : policy_(policy) {
  TP_CHECK(policy_.Valid());
  const uint32_t k = engine.num_shards();
  prev_marks_.assign(k, 0);
  rate_.assign(k, 0.0);
  hot_streak_.assign(k, 0);
  migrated_.assign(k, 0);
  (void)SampleRates(engine);
}

double Rebalancer::RatePerTick(uint32_t p) const {
  TP_DCHECK(p < rate_.size());
  return rate_[p];
}

uint32_t Rebalancer::HotStreak(uint32_t p) const {
  TP_DCHECK(p < hot_streak_.size());
  return hot_streak_[p];
}

bool Rebalancer::SampleRates(const ShardedEngine& engine) {
  const uint32_t k = engine.num_shards();
  // Never the boundary the facade just submitted: whether the runners
  // finish that tick before this read is a race, and winning it once
  // would make the next boundary uninformative. One boundary behind, a
  // paced fleet observes the same ticks at every boundary.
  const uint64_t tick = engine.current_tick();
  const uint64_t boundary =
      std::min(engine.CommonMarksBoundary(), tick > 0 ? tick - 1 : 0);
  if (sample_boundary_ != kNoSample && boundary <= sample_boundary_) {
    return false;  // no tick has completed on every runner since
  }
  std::vector<uint64_t> marks(k, 0);
  for (uint32_t p = 0; p < k; ++p) {
    const std::optional<uint64_t> at =
        engine.PartitionDirtyMarksAt(p, boundary);
    if (!at.has_value()) return false;  // outside a runner's sample window
    marks[p] = *at;
  }
  if (sample_boundary_ == kNoSample) {
    prev_marks_ = marks;
    sample_boundary_ = boundary;
    return false;
  }
  const double ticks = static_cast<double>(boundary - sample_boundary_);
  for (uint32_t p = 0; p < k; ++p) {
    // The cumulative counter lives in the partition's ENGINE, so an engine
    // swap (migration, failover) restarts it at 0; a reading below the
    // previous one means exactly that, and the post-swap total IS the
    // window's delta.
    const uint64_t delta =
        marks[p] >= prev_marks_[p] ? marks[p] - prev_marks_[p] : marks[p];
    const double observed = static_cast<double>(delta) / ticks;
    rate_[p] = rate_[p] == 0.0
                   ? observed
                   : policy_.ewma_alpha * observed +
                         (1.0 - policy_.ewma_alpha) * rate_[p];
  }
  prev_marks_ = std::move(marks);
  sample_boundary_ = boundary;
  return true;
}

int Rebalancer::PickHotPartition(const ShardedEngine& engine) {
  const uint32_t k = engine.num_shards();
  if (k < 2) return -1;
  double total = 0.0;
  for (uint32_t p = 0; p < k; ++p) total += rate_[p];
  int best = -1;
  for (uint32_t p = 0; p < k; ++p) {
    const double mean_others =
        (total - rate_[p]) / static_cast<double>(k - 1);
    const bool hot = !migrated_[p] &&
                     rate_[p] >= policy_.min_marks_per_tick &&
                     rate_[p] > policy_.imbalance_ratio * mean_others;
    hot_streak_[p] = hot ? hot_streak_[p] + 1 : 0;
    if (hot_streak_[p] >= policy_.hysteresis_ticks &&
        (best < 0 || rate_[p] > rate_[best])) {
      best = static_cast<int>(p);
    }
  }
  return best;
}

Status Rebalancer::OnTickBoundary(ShardedEngine* engine) {
  if (engine->failed()) return Status::OK();

  // Sample EVERY boundary, whatever the phase, so the rates track the
  // runners as closely as the facade sees them. An UNINFORMATIVE boundary
  // (no tick completed on every runner since the last sample -- runners
  // lagging the facade) updates nothing and earns no warmup credit, but
  // an armed cut still commits below: the cut tick passing is a property
  // of the fleet clock, not of observed write traffic.
  const bool informative = SampleRates(*engine);
  if (informative) ++boundaries_seen_;

  if (phase_ == Phase::kCutRequested) {
    if (!engine->cut_in_flight()) {
      // Someone else committed (or disarmed) our cut out from under us --
      // a caller driving the cut API directly. Drop the decision and
      // re-detect; the streaks are still warm.
      phase_ = Phase::kIdle;
    } else if (engine->current_tick() > pending_cut_tick_) {
      // The cut tick has run on every shard; commit it and move the hot
      // partition while the quiesced live state still equals the cut
      // image (the MigratePartition precondition: no tick in between).
      TP_RETURN_NOT_OK(engine->CommitConsistentCut());
      TP_RETURN_NOT_OK(engine->MigratePartition(
          pending_partition_, pending_to_slot_, policy_.spawn_mount_root));
      migrated_[pending_partition_] = 1;
      hot_streak_[pending_partition_] = 0;
      // The fresh engine's counter restarts at 0 and its first window is
      // not comparable; restart the partition's rate from scratch too.
      prev_marks_[pending_partition_] = 0;
      rate_[pending_partition_] = 0.0;
      ++migrations_;
      last_migration_tick_ = engine->current_tick();
      last_event_.partition = pending_partition_;
      last_event_.to_slot = pending_to_slot_;
      last_event_.hot_ratio = pending_ratio_;
      last_event_.decided_tick = pending_decided_tick_;
      last_event_.cut_tick = pending_cut_tick_;
      phase_ = Phase::kIdle;
      return Status::OK();
    }
    // Cut armed but its tick not yet past: keep ticking.
    return Status::OK();
  }

  if (!informative) return Status::OK();
  if (boundaries_seen_ <= policy_.warmup_ticks) return Status::OK();
  if (engine->cut_in_flight()) return Status::OK();  // user cut: stand down
  if (policy_.max_migrations > 0 && migrations_ >= policy_.max_migrations) {
    return Status::OK();
  }
  if (last_migration_tick_ != UINT64_MAX &&
      engine->current_tick() - last_migration_tick_ < policy_.cooldown_ticks) {
    return Status::OK();
  }

  const int hot = PickHotPartition(*engine);
  if (hot < 0) return Status::OK();
  const uint32_t p = static_cast<uint32_t>(hot);

  // Spawn a FRESH slot past every occupied one: the destination is always
  // empty, so the slot space (and with a mount root, the disk fan-out)
  // grows with each migration while the partition count stays fixed.
  uint32_t to_slot = 0;
  for (const uint32_t slot : engine->manifest().assignment) {
    to_slot = std::max(to_slot, slot + 1);
  }

  double total = 0.0;
  for (const double r : rate_) total += r;
  const double mean_others =
      (total - rate_[p]) / static_cast<double>(engine->num_shards() - 1);

  TP_ASSIGN_OR_RETURN(const uint64_t cut_tick,
                      engine->RequestConsistentCut());
  pending_partition_ = p;
  pending_to_slot_ = to_slot;
  pending_cut_tick_ = cut_tick;
  pending_decided_tick_ = engine->current_tick();
  pending_ratio_ = mean_others > 0.0 ? rate_[p] / mean_others : 0.0;
  phase_ = Phase::kCutRequested;
  return Status::OK();
}

}  // namespace tickpoint
