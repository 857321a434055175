// Helper shared by the engine-level suites (engine_test, interval_test,
// engine_stress_test): drive a workload until a condition on the engine
// holds instead of for a fixed tick count. A checkpoint completes on the
// engine's writer thread, so how many a fixed number of ticks completes
// depends on how often a busy machine schedules that thread.
#ifndef TICKPOINT_TESTS_ENGINE_TEST_UTIL_H_
#define TICKPOINT_TESTS_ENGINE_TEST_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/mutator.h"
#include "trace/source.h"

namespace tickpoint {

/// Drives RunWorkload's workload (tick t applies trace tick t with
/// WorkloadValue, so ApplyWorkloadToTable over the returned tick count is
/// the reference) from tick 0: `min_ticks` ticks back to back, then one
/// tick per millisecond until `done()` holds. The end of the trace bounds
/// the run. Returns the number of ticks run.
inline StatusOr<uint64_t> RunWorkloadUntil(Engine* engine,
                                           UpdateSource* source,
                                           uint64_t min_ticks,
                                           const std::function<bool()>& done) {
  source->Reset();
  std::vector<TraceCell> cells;
  uint64_t tick = 0;
  while ((tick < min_ticks || !done()) && source->NextTick(&cells)) {
    if (tick >= min_ticks) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine->BeginTick();
    for (uint64_t i = 0; i < cells.size(); ++i) {
      engine->ApplyUpdate(cells[i], WorkloadValue(tick, cells[i], i));
    }
    TP_RETURN_NOT_OK(engine->EndTick());
    ++tick;
  }
  return tick;
}

}  // namespace tickpoint

#endif  // TICKPOINT_TESTS_ENGINE_TEST_UTIL_H_
