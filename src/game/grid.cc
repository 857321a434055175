#include "game/grid.h"

#include <algorithm>

namespace tickpoint {
namespace game {

SpatialGrid::SpatialGrid(int32_t map_size, int32_t bucket_shift)
    : map_size_(map_size),
      bucket_shift_(bucket_shift),
      buckets_per_side_((map_size + (1 << bucket_shift) - 1) >> bucket_shift) {
  TP_CHECK(map_size > 0 && bucket_shift >= 4);
  buckets_.resize(static_cast<size_t>(buckets_per_side_) * buckets_per_side_);
}

void SpatialGrid::Rebuild(const UnitTable& units,
                          const std::vector<UnitId>& active) {
  for (auto& bucket : buckets_) bucket.clear();
  for (UnitId u : active) {
    const int32_t x = std::clamp(units.x(u), 0, map_size_ - 1);
    const int32_t y = std::clamp(units.y(u), 0, map_size_ - 1);
    const int32_t bx = x >> bucket_shift_;
    const int32_t by = y >> bucket_shift_;
    buckets_[static_cast<size_t>(by) * buckets_per_side_ + bx].push_back(
        Entry{x, y, units.team(u), units.health(u), u});
  }
}

template <typename Filter>
UnitId SpatialGrid::ScanNear(const UnitTable& units, UnitId unit,
                             int32_t radius, Filter filter) const {
  const int32_t ux = units.x(unit);
  const int32_t uy = units.y(unit);
  const int32_t edge = map_size_ - 1;
  const int32_t b0x = std::clamp(ux - radius, 0, edge) >> bucket_shift_;
  const int32_t b1x = std::clamp(ux + radius, 0, edge) >> bucket_shift_;
  const int32_t b0y = std::clamp(uy - radius, 0, edge) >> bucket_shift_;
  const int32_t b1y = std::clamp(uy + radius, 0, edge) >> bucket_shift_;
  const int64_t radius2 = static_cast<int64_t>(radius) * radius;

  UnitId best = kNoUnit;
  int64_t best_key = INT64_MAX;
  for (int32_t by = b0y; by <= b1y; ++by) {
    const size_t row = static_cast<size_t>(by) * buckets_per_side_;
    for (int32_t bx = b0x; bx <= b1x; ++bx) {
      for (const Entry& entry : buckets_[row + bx]) {
        if (entry.id == unit) continue;
        const int64_t dx = entry.x - ux;
        const int64_t dy = entry.y - uy;
        const int64_t d2 = dx * dx + dy * dy;
        if (d2 > radius2) continue;
        int64_t key;
        if (!filter(entry, d2, &key)) continue;
        if (key < best_key) {
          best_key = key;
          best = entry.id;
        }
      }
    }
  }
  return best;
}

UnitId SpatialGrid::NearestEnemy(const UnitTable& units, UnitId unit,
                                 int32_t radius) const {
  const int32_t my_team = units.team(unit);
  return ScanNear(units, unit, radius,
                  [my_team](const Entry& entry, int64_t d2, int64_t* key) {
                    if (entry.team == my_team || entry.health <= 0) {
                      return false;
                    }
                    *key = d2;
                    return true;
                  });
}

UnitId SpatialGrid::NearestAlly(const UnitTable& units, UnitId unit,
                                int32_t radius) const {
  const int32_t my_team = units.team(unit);
  return ScanNear(units, unit, radius,
                  [my_team](const Entry& entry, int64_t d2, int64_t* key) {
                    if (entry.team != my_team || entry.health <= 0) {
                      return false;
                    }
                    *key = d2;
                    return true;
                  });
}

UnitId SpatialGrid::WeakestAlly(const UnitTable& units, UnitId unit,
                                int32_t radius) const {
  const int32_t my_team = units.team(unit);
  return ScanNear(units, unit, radius,
                  [my_team](const Entry& entry, int64_t d2, int64_t* key) {
                    (void)d2;
                    if (entry.team != my_team) return false;
                    if (entry.health <= 0 || entry.health >= kMaxHealth) {
                      return false;
                    }
                    // Order by health, ties by id for determinism.
                    *key = static_cast<int64_t>(entry.health) << 32 | entry.id;
                    return true;
                  });
}

}  // namespace game
}  // namespace tickpoint
