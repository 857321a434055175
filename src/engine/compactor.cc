#include "engine/compactor.h"

namespace tickpoint {

CompactionPlan PlanCompaction(const HistoryIndex& index,
                              const RetentionPolicy& policy) {
  CompactionPlan plan;
  if (!policy.enabled || index.generations.empty()) return plan;

  // Generations are kept in ascending seq (= ascending consistent tick)
  // order; find the first survivor. Count bound first (in bases: the
  // records of one LogStore generation share one), then the tick bound,
  // never dropping the newest.
  const auto& gens = index.generations;
  size_t first_kept = gens.size() - 1;
  uint64_t bases = 1;
  while (first_kept > 0) {
    const bool new_base =
        !HistoryIndex::SharesBase(gens[first_kept - 1], gens[first_kept]);
    if (new_base && bases == policy.max_generations) break;
    if (new_base) ++bases;
    --first_kept;
  }
  if (policy.max_retained_ticks > 0) {
    const uint64_t newest_tick = gens.back().consistent_tick;
    const uint64_t floor_tick = newest_tick > policy.max_retained_ticks
                                    ? newest_tick - policy.max_retained_ticks
                                    : 0;
    while (first_kept + 1 < gens.size() &&
           gens[first_kept].consistent_tick < floor_tick) {
      ++first_kept;
    }
  }
  for (size_t i = 0; i < first_kept; ++i) {
    plan.drop_generations.push_back(gens[i].seq);
  }
  plan.window_base = gens[first_kept].base_tick();

  // Segment records with tick < window_base serve no surviving generation:
  // whole segments below the base are dropped, a segment straddling it is
  // rewritten keeping [window_base, last_tick].
  for (const auto& seg : index.segments) {
    if (seg.last_tick < plan.window_base) {
      plan.drop_segments.push_back(seg.id);
    } else if (seg.first_tick < plan.window_base) {
      plan.rewrite_segments.push_back(seg.id);
    }
  }
  return plan;
}

}  // namespace tickpoint
