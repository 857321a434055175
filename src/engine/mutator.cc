#include "engine/mutator.h"

#include <chrono>
#include <thread>

#include "util/random.h"

namespace tickpoint {

int32_t WorkloadValue(uint64_t tick, uint32_t cell, uint64_t index) {
  uint64_t x = tick * 0x9E3779B97F4A7C15ULL ^ cell * 0xC2B2AE3D27D4EB4FULL ^
               index * 0x165667B19E3779F9ULL;
  x ^= x >> 29;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 32;
  return static_cast<int32_t>(x);
}

uint32_t WorkloadCell(uint32_t shard, uint64_t tick, uint64_t index,
                      uint64_t num_cells) {
  uint64_t x = (uint64_t{shard} + 1) * 0x9E3779B97F4A7C15ull +
               tick * 0xBF58476D1CE4E5B9ull + index * 0x94D049BB133111EBull;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return static_cast<uint32_t>(x % num_cells);
}

StatusOr<MutatorReport> RunWorkload(Engine* engine, UpdateSource* source,
                                    const MutatorOptions& options) {
  using Clock = std::chrono::steady_clock;
  TP_CHECK(source->layout().num_cells() ==
           engine->config().layout.num_cells());
  source->Reset();
  Rng query_rng(options.query_seed);
  MutatorReport report;
  const auto run_start = Clock::now();
  const uint64_t num_cells = engine->config().layout.num_cells();

  std::vector<TraceCell> cells;
  uint64_t tick = options.skip_ticks;
  for (uint64_t skipped = 0; skipped < options.skip_ticks; ++skipped) {
    if (!source->NextTick(&cells)) break;
  }
  while (tick < options.max_ticks && source->NextTick(&cells)) {
    const auto tick_start = Clock::now();

    // Query phase: random lookups that model the read side of game logic.
    for (uint64_t q = 0; q < options.query_reads_per_tick; ++q) {
      report.query_checksum +=
          engine->state().ReadCell(query_rng.Uniform(num_cells));
    }

    // Update phase: apply the trace through the checkpointing engine.
    engine->BeginTick();
    for (uint64_t i = 0; i < cells.size(); ++i) {
      engine->ApplyUpdate(cells[i], WorkloadValue(tick, cells[i], i));
    }
    TP_RETURN_NOT_OK(engine->EndTick());
    ++report.ticks;

    if (tick == options.crash_after_tick) {
      TP_RETURN_NOT_OK(engine->SimulateCrash());
      report.crashed = true;
      break;
    }

    // Sleep phase: fill the tick to the configured rate.
    if (options.tick_hz > 0.0) {
      const auto deadline =
          tick_start +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / options.tick_hz));
      std::this_thread::sleep_until(deadline);
    }
    ++tick;
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_start).count();
  return report;
}

void ApplyWorkloadToTable(UpdateSource* source, uint64_t max_ticks,
                          StateTable* table) {
  source->Reset();
  std::vector<TraceCell> cells;
  uint64_t tick = 0;
  while (tick < max_ticks && source->NextTick(&cells)) {
    for (uint64_t i = 0; i < cells.size(); ++i) {
      table->WriteCell(cells[i], WorkloadValue(tick, cells[i], i));
    }
    ++tick;
  }
}

}  // namespace tickpoint
