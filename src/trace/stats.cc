#include "trace/stats.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/bitvec.h"

namespace tickpoint {

TraceStats ComputeTraceStats(UpdateSource* source) {
  source->Reset();
  const StateLayout& layout = source->layout();
  TraceStats stats;
  BitVector cells_seen(layout.num_cells());
  std::vector<uint64_t> object_hits(layout.num_objects(), 0);
  std::vector<TraceCell> cells;
  bool first_tick = true;
  while (source->NextTick(&cells)) {
    ++stats.num_ticks;
    stats.total_updates += cells.size();
    if (first_tick) {
      stats.min_updates_per_tick = stats.max_updates_per_tick = cells.size();
      first_tick = false;
    } else {
      stats.min_updates_per_tick =
          std::min<uint64_t>(stats.min_updates_per_tick, cells.size());
      stats.max_updates_per_tick =
          std::max<uint64_t>(stats.max_updates_per_tick, cells.size());
    }
    for (TraceCell cell : cells) {
      cells_seen.Set(cell);
      ++object_hits[layout.ObjectOfCell(cell)];
    }
  }
  source->Reset();

  stats.avg_updates_per_tick =
      stats.num_ticks == 0
          ? 0.0
          : static_cast<double>(stats.total_updates) /
                static_cast<double>(stats.num_ticks);
  stats.distinct_cells = cells_seen.CountSet();
  stats.distinct_objects = 0;
  for (uint64_t hits : object_hits) stats.distinct_objects += (hits > 0);

  if (stats.total_updates > 0) {
    std::vector<uint64_t> sorted = object_hits;
    std::sort(sorted.begin(), sorted.end(), std::greater<uint64_t>());
    const uint64_t top = std::max<uint64_t>(1, sorted.size() / 100);
    uint64_t top_hits = 0;
    for (uint64_t i = 0; i < top; ++i) top_hits += sorted[i];
    stats.hottest_percentile_share = static_cast<double>(top_hits) /
                                     static_cast<double>(stats.total_updates);
  }
  return stats;
}

std::string TraceStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "ticks=%llu total_updates=%llu avg/tick=%.1f min/tick=%llu "
      "max/tick=%llu distinct_cells=%llu distinct_objects=%llu "
      "top1%%_share=%.3f",
      static_cast<unsigned long long>(num_ticks),
      static_cast<unsigned long long>(total_updates), avg_updates_per_tick,
      static_cast<unsigned long long>(min_updates_per_tick),
      static_cast<unsigned long long>(max_updates_per_tick),
      static_cast<unsigned long long>(distinct_cells),
      static_cast<unsigned long long>(distinct_objects),
      hottest_percentile_share);
  return buf;
}

}  // namespace tickpoint
