// Extension measured for real (paper Section 8 future work): K engine
// shards share one persistence disk. bench_shard_stagger projects from the
// cost model that synchronized checkpoints stretch every write K-fold while
// staggered starts keep each write at the solo time; this harness runs the
// actual ShardedEngine both ways and prints measured checkpoint write times
// next to the model's projection.
//
// Every shard runs on its own mutator thread (real zone-server pacing).
// Three schedules per shard count:
//   synchronized -- every shard starts its checkpoint at the same tick
//   staggered    -- fixed i * period / K start offsets
//   adaptive     -- the measured-write-time stagger planner, which keeps
//                   concurrent flushes within --budget
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/fleet.h"
#include "engine/mutator.h"
#include "engine/recovery.h"
#include "engine/sharded_engine.h"
#include "game/shard_adapter.h"
#include "model/cost_model.h"

using namespace tickpoint;

namespace {

enum class Schedule { kSynchronized, kStaggered, kAdaptive };

const char* ScheduleName(Schedule schedule) {
  switch (schedule) {
    case Schedule::kSynchronized:
      return "synchronized";
    case Schedule::kStaggered:
      return "staggered";
    case Schedule::kAdaptive:
      return "adaptive";
  }
  return "?";
}

struct RunParams {
  StateLayout layout;
  AlgorithmKind algorithm;
  bool fsync = true;
  uint64_t ticks = 60;
  uint64_t updates_per_tick = 4000;
  uint64_t period_ticks = 12;
  double tick_hz = 30.0;
  uint32_t disk_budget = 1;
};

struct FleetResult {
  ShardedCheckpointStats stats;
  uint64_t deferrals = 0;
  /// With_cut runs: the committed cut's timing, plus the max tick-to-tick
  /// mutator stall observed around the cut vs. the run's median tick.
  ConsistentCutReport cut;
  double max_tick_seconds = 0.0;
  /// Mutator-side tick cost: wall time of BeginTick..EndTick (pacing sleep
  /// excluded), summed over the run. avg/ticks_per_second derive from it.
  double sum_tick_seconds = 0.0;
  uint64_t ticks = 0;

  double avg_tick_seconds() const {
    return ticks > 0 ? sum_tick_seconds / static_cast<double>(ticks) : 0.0;
  }
  double ticks_per_second() const {
    return sum_tick_seconds > 0 ? static_cast<double>(ticks) / sum_tick_seconds
                                : 0.0;
  }
};

/// One full fleet run; returns steady-state checkpoint stats (each shard's
/// cold first checkpoint excluded). When `with_cut` is set, a consistent
/// cut is requested at the halfway tick and committed as soon as the cut
/// tick has run.
StatusOr<FleetResult> RunFleet(const std::string& dir, const RunParams& params,
                               uint32_t num_shards, Schedule schedule,
                               bool with_cut = false) {
  std::filesystem::remove_all(dir);
  ShardedEngineConfig config;
  config.shard.layout = params.layout;
  config.shard.algorithm = params.algorithm;
  config.shard.dir = dir;
  config.shard.fsync = params.fsync;
  config.num_shards = num_shards;
  config.checkpoint_period_ticks = params.period_ticks;
  config.staggered = schedule != Schedule::kSynchronized;
  config.adaptive = schedule == Schedule::kAdaptive;
  config.disk_budget = params.disk_budget;
  TP_ASSIGN_OR_RETURN(auto fleet, Fleet::Create(dir, config));

  const uint64_t num_cells = params.layout.num_cells();
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> tick_period(
      params.tick_hz > 0 ? 1.0 / params.tick_hz : 0.0);
  FleetResult result;
  const uint64_t request_cut_at = params.ticks / 2;
  uint64_t cut_tick = 0;
  bool cut_armed = false;
  bool cut_committed = false;
  for (uint64_t tick = 0; tick < params.ticks; ++tick) {
    if (with_cut && !cut_armed && tick == request_cut_at) {
      TP_ASSIGN_OR_RETURN(cut_tick, fleet->RequestConsistentCut());
      cut_armed = true;
    }
    const auto tick_start = std::chrono::steady_clock::now();
    fleet->BeginTick();
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      for (uint64_t i = 0; i < params.updates_per_tick; ++i) {
        const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
        fleet->ApplyUpdate(shard, cell,
                           static_cast<int32_t>(tick * 131 + i));
      }
    }
    TP_RETURN_NOT_OK(fleet->EndTick());
    if (cut_armed && !cut_committed && tick == cut_tick) {
      TP_RETURN_NOT_OK(fleet->CommitConsistentCut());
      cut_committed = true;
      result.cut = fleet->engine().last_cut_report();
    }
    const double tick_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      tick_start)
            .count();
    result.sum_tick_seconds += tick_seconds;
    ++result.ticks;
    if (tick_seconds > result.max_tick_seconds) {
      result.max_tick_seconds = tick_seconds;
    }
    if (params.tick_hz > 0) {
      // The sleep phase of the mutator loop: pace to tick_hz so the stagger
      // schedule maps tick offsets onto wall-clock offsets.
      std::this_thread::sleep_until(start + (tick + 1) * tick_period);
    }
  }
  TP_RETURN_NOT_OK(fleet->Shutdown());
  result.stats = fleet->engine().CheckpointStats(/*skip_first=*/true);
  result.deferrals = fleet->engine().scheduler().deferrals();
  std::filesystem::remove_all(dir);
  return result;
}

/// Per-tick cost of pushing a tick's batches through every mailbox AND
/// having the runners consume them: unpaced ticks with the periodic
/// checkpoint starts pushed past the run, timed from a warmed-up, drained
/// start until WaitForIdle returns after the last tick. Including the
/// drain is the point -- the mailboxes are deeper than the run, so a
/// producer-side-only clock would reward whichever mailbox defers more
/// runner work past the window instead of measuring pipeline overhead.
/// Checkpoint stalls made the per-row avg tick noisy on a loaded machine;
/// medians over `reps` runs keep the residual scheduler noise out too.
StatusOr<double> MeasureMailboxTick(const std::string& dir,
                                    const RunParams& params,
                                    uint32_t num_shards, int reps) {
  std::vector<double> avgs;
  for (int rep = 0; rep < reps; ++rep) {
    std::filesystem::remove_all(dir);
    ShardedEngineConfig config;
    config.shard.layout = params.layout;
    config.shard.algorithm = params.algorithm;
    config.shard.dir = dir;
    config.shard.fsync = params.fsync;
    config.num_shards = num_shards;
    config.checkpoint_period_ticks = params.ticks * 1000;
    config.staggered = true;
    config.disk_budget = params.disk_budget;
    TP_ASSIGN_OR_RETURN(auto fleet, Fleet::Create(dir, config));
    const uint64_t num_cells = params.layout.num_cells();
    const auto run_tick = [&](uint64_t tick) -> Status {
      fleet->BeginTick();
      for (uint32_t shard = 0; shard < num_shards; ++shard) {
        for (uint64_t i = 0; i < params.updates_per_tick; ++i) {
          fleet->ApplyUpdate(shard, WorkloadCell(shard, tick, i, num_cells),
                             static_cast<int32_t>(tick * 131 + i));
        }
      }
      return fleet->EndTick();
    };
    // Warmup absorbs the tick-0 bootstrap checkpoint and cold caches; the
    // drain puts the clock at a known-empty pipeline state.
    constexpr uint64_t kWarmupTicks = 8;
    for (uint64_t tick = 0; tick < kWarmupTicks; ++tick) {
      TP_RETURN_NOT_OK(run_tick(tick));
    }
    TP_RETURN_NOT_OK(fleet->WaitForIdle());
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t tick = kWarmupTicks; tick < kWarmupTicks + params.ticks;
         ++tick) {
      TP_RETURN_NOT_OK(run_tick(tick));
    }
    TP_RETURN_NOT_OK(fleet->WaitForIdle());
    const double total =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    TP_RETURN_NOT_OK(fleet->Shutdown());
    std::filesystem::remove_all(dir);
    avgs.push_back(total / static_cast<double>(params.ticks));
  }
  std::sort(avgs.begin(), avgs.end());
  return avgs[avgs.size() / 2];
}

/// One zone-migration run on the Fleet API: workload to the halfway tick,
/// consistent cut, MigratePartition(0 -> K) at the committed cut, workload
/// to the end, clean shutdown, then a timed no-config Fleet::Open round
/// trip (recover + resume) of the migrated topology.
struct MigrationRunResult {
  ConsistentCutReport cut;
  MigrationReport move;
  /// Fleet::Open on the migrated root: recovery + per-shard bootstrap.
  double reopen_seconds = 0.0;
  /// Steady-state checkpoint stats before the move (skip_first applied)
  /// and for the post-move remainder of the run.
  ShardedCheckpointStats pre;
  ShardedCheckpointStats post;
};

StatusOr<MigrationRunResult> RunMigrationFleet(const std::string& dir,
                                               const RunParams& params,
                                               uint32_t num_shards) {
  std::filesystem::remove_all(dir);
  ShardedEngineConfig config;
  config.shard.layout = params.layout;
  config.shard.algorithm = params.algorithm;
  config.shard.fsync = params.fsync;
  config.num_shards = num_shards;
  config.checkpoint_period_ticks = params.period_ticks;
  config.disk_budget = params.disk_budget;
  TP_ASSIGN_OR_RETURN(auto fleet, Fleet::Create(dir, config));

  const uint64_t num_cells = params.layout.num_cells();
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> tick_period(
      params.tick_hz > 0 ? 1.0 / params.tick_hz : 0.0);
  MigrationRunResult result;
  const uint64_t request_cut_at = params.ticks / 2;
  uint64_t cut_tick = 0;
  bool cut_armed = false;
  for (uint64_t tick = 0; tick < params.ticks; ++tick) {
    if (!cut_armed && tick == request_cut_at) {
      TP_ASSIGN_OR_RETURN(cut_tick, fleet->RequestConsistentCut());
      cut_armed = true;
    }
    fleet->BeginTick();
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      for (uint64_t i = 0; i < params.updates_per_tick; ++i) {
        const uint32_t cell = WorkloadCell(shard, tick, i, num_cells);
        fleet->ApplyUpdate(shard, cell,
                           static_cast<int32_t>(tick * 131 + i));
      }
    }
    TP_RETURN_NOT_OK(fleet->EndTick());
    if (cut_armed && tick == cut_tick) {
      // The hand-off: commit the cut and move partition 0 to the fresh
      // slot K, all before the next tick runs.
      TP_RETURN_NOT_OK(fleet->CommitConsistentCut());
      result.cut = fleet->engine().last_cut_report();
      TP_RETURN_NOT_OK(fleet->MigratePartition(0, num_shards));
      result.move = fleet->last_migration_report();
    }
    if (params.tick_hz > 0) {
      std::this_thread::sleep_until(start + (tick + 1) * tick_period);
    }
  }
  TP_RETURN_NOT_OK(fleet->Shutdown());
  // Steady-state write times on either side of the epoch boundary, split
  // by checkpoint start tick. Each original shard's cold first record and
  // the synchronous cut records are excluded; the migrated partition's
  // records all come from its post-move engine (the pre-move ones died
  // with the source engine, which is fine -- its post side is the
  // interesting one).
  double pre_sum = 0.0;
  double post_sum = 0.0;
  for (uint32_t p = 0; p < num_shards; ++p) {
    const auto& records =
        fleet->engine().shard(p).metrics().checkpoints;
    for (size_t r = 0; r < records.size(); ++r) {
      const EngineCheckpointRecord& record = records[r];
      if (record.cut || (r == 0 && record.all_objects)) continue;
      const double total = record.TotalSeconds();
      if (record.start_tick <= cut_tick) {
        ++result.pre.checkpoints;
        pre_sum += total;
        result.pre.max_total_seconds =
            std::max(result.pre.max_total_seconds, total);
      } else {
        ++result.post.checkpoints;
        post_sum += total;
        result.post.max_total_seconds =
            std::max(result.post.max_total_seconds, total);
      }
    }
  }
  if (result.pre.checkpoints > 0) {
    result.pre.avg_total_seconds =
        pre_sum / static_cast<double>(result.pre.checkpoints);
  }
  if (result.post.checkpoints > 0) {
    result.post.avg_total_seconds =
        post_sum / static_cast<double>(result.post.checkpoints);
  }
  fleet.reset();

  // The no-config reopen: recovery + per-shard bootstrap from the
  // manifest alone, landing on the migrated topology.
  const auto reopen_start = std::chrono::steady_clock::now();
  auto reopened_or = Fleet::Open(dir);
  if (!reopened_or.ok()) return reopened_or.status();
  auto reopened = std::move(reopened_or).value();
  result.reopen_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    reopen_start)
          .count();
  TP_RETURN_NOT_OK(reopened->Shutdown());
  std::filesystem::remove_all(dir);
  return result;
}

/// One hot-failover run: a replicated fleet plays the workload unpaced,
/// one shard crashes, and BOTH recovery paths are timed against the same
/// dead directory -- a disk Recover (restore + replay) into a side table
/// first (FailoverShard's bootstrap checkpoint would rewrite the
/// directory), then FailoverShard itself, which rebuilds from the peer's
/// in-memory replica ring. The digest equality of the two results is the
/// correctness check; the latency ratio is the headline.
struct FailoverRunResult {
  FailoverReport report;
  double disk_recover_seconds = 0.0;
  bool digests_match = false;
};

StatusOr<FailoverRunResult> RunFailoverFleet(const std::string& dir,
                                             const RunParams& params,
                                             uint32_t num_shards) {
  std::filesystem::remove_all(dir);
  ShardedEngineConfig config;
  config.shard.layout = params.layout;
  config.shard.algorithm = params.algorithm;
  config.shard.dir = dir;
  config.shard.fsync = params.fsync;
  config.num_shards = num_shards;
  config.checkpoint_period_ticks = params.period_ticks;
  config.staggered = true;
  config.disk_budget = params.disk_budget;
  config.replicate = true;
  TP_ASSIGN_OR_RETURN(auto fleet, Fleet::Create(dir, config));
  const uint64_t num_cells = params.layout.num_cells();
  for (uint64_t tick = 0; tick < params.ticks; ++tick) {
    fleet->BeginTick();
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      for (uint64_t i = 0; i < params.updates_per_tick; ++i) {
        fleet->ApplyUpdate(shard, WorkloadCell(shard, tick, i, num_cells),
                           static_cast<int32_t>(tick * 131 + i));
      }
    }
    TP_RETURN_NOT_OK(fleet->EndTick());
  }
  const uint32_t victim = num_shards - 1;
  TP_RETURN_NOT_OK(fleet->SimulateShardCrash(victim));

  FailoverRunResult result;
  EngineConfig dead = config.shard;
  dead.dir = ShardedEngine::ShardDir(
      dir, fleet->engine().manifest().assignment[victim]);
  dead.manual_checkpoints = true;
  StateTable disk_table(params.layout);
  const auto disk_start = std::chrono::steady_clock::now();
  auto disk_or = Recover(dead, &disk_table);
  if (!disk_or.ok()) return disk_or.status();
  result.disk_recover_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    disk_start)
          .count();

  TP_RETURN_NOT_OK(fleet->FailoverShard(victim));
  result.report = fleet->last_failover_report();
  TP_RETURN_NOT_OK(fleet->WaitForIdle());
  result.digests_match =
      fleet->engine().shard(victim).state().Digest() == disk_table.Digest();
  TP_RETURN_NOT_OK(fleet->Shutdown());
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv, "bench_sharded_engine",
                          "Extension: measured K-shard checkpointing -- "
                          "synchronized vs staggered vs adaptive starts on "
                          "one disk (real-engine counterpart of "
                          "bench_shard_stagger)");
  const double state_mb = ctx.flags().GetDouble("state-mb", 24.0);
  const uint64_t ticks = ctx.flags().GetInt64("ticks", 60);
  const uint64_t updates = ctx.flags().GetInt64("updates", 4000);
  const uint64_t period = ctx.flags().GetInt64("period", 12);
  const double tick_hz = ctx.flags().GetDouble("tick-hz", 30.0);
  const bool fsync = ctx.flags().GetBool("fsync", true);
  const uint64_t budget = ctx.flags().GetInt64("budget", 1);
  const std::string algo_name = ctx.flags().GetString("algo", "naive");
  const auto algo = ParseAlgorithm(algo_name);
  if (!algo) {
    std::fprintf(stderr, "unknown --algo %s\n", algo_name.c_str());
    return 1;
  }

  RunParams params;
  params.layout = StateLayout::Small(
      static_cast<uint64_t>(state_mb * 1e6 / (10 * 4)), 10);
  params.algorithm = *algo;
  params.fsync = fsync;
  params.ticks = ticks;
  params.updates_per_tick = updates;
  params.period_ticks = period;
  params.tick_hz = tick_hz;
  params.disk_budget = static_cast<uint32_t>(budget);

  char header[176];
  std::snprintf(header, sizeof(header),
                "%.1f MB state/shard, %s, %llu ticks @ %.0f Hz, period %llu "
                "ticks, budget %llu, fsync %s",
                state_mb, AlgorithmName(*algo),
                static_cast<unsigned long long>(ticks), tick_hz,
                static_cast<unsigned long long>(period),
                static_cast<unsigned long long>(budget),
                fsync ? "on" : "off");
  ctx.PrintHeader(header);

  // The cost model's projection for this geometry (what bench_shard_stagger
  // tabulates): one full write of the shard at Table 3 disk bandwidth.
  const CostModel cost(HardwareParams::Paper());
  const double model_solo =
      cost.DoubleBackupWriteSeconds(params.layout.num_objects());

  const std::string dir =
      (std::filesystem::temp_directory_path() / "tp_bench_sharded").string();

  struct RowSpec {
    uint32_t shards;
    Schedule schedule;
  };
  const RowSpec rows[] = {
      {1, Schedule::kStaggered},  // solo baseline
      {2, Schedule::kSynchronized},
      {2, Schedule::kStaggered},
      {2, Schedule::kAdaptive},
      {4, Schedule::kSynchronized},
      {4, Schedule::kStaggered},
      {4, Schedule::kAdaptive},
      // Mailbox-scaling rows: wide fleets stress the submit path itself
      // (K rings fed from one mutator thread), which is what the lock-free
      // mailbox is for. The controlled mutex-vs-ring comparison runs in
      // the dedicated mailbox section below.
      {8, Schedule::kStaggered},
      {16, Schedule::kStaggered},
  };

  // Median mailbox tick cost measured by the mailbox section of this
  // bench built at the mutex-mailbox revision (microseconds); 0 means
  // "not supplied". Reported next to the lock-free medians in the
  // mailbox JSON rows.
  const double baseline_k8_us =
      ctx.flags().GetDouble("baseline-k8-tick-us", 0.0);
  const double baseline_k16_us =
      ctx.flags().GetDouble("baseline-k16-tick-us", 0.0);

  bench::JsonEmitter json("bench_sharded_engine");

  // ---- Mailbox tick overhead (checkpoint pipeline quiesced) ----
  //
  // The lock-free-vs-mutex comparison the mailbox rework is accountable
  // to: median mutator-side tick cost over several checkpoint-free runs,
  // so disk stalls (which dwarf the submit path and land at different
  // ticks run to run) cannot decide the verdict. Runs FIRST -- before the
  // checkpoint rows heat the disk and page cache -- so its numbers are
  // comparable across builds and across --mailbox-only runs.
  {
    // 9 reps: each rep is cheap (the runs are checkpoint-free; setup
    // dominates) and the run-to-run spread on a loaded box is wide enough
    // that a 5-rep median still wobbles.
    constexpr int kMailboxReps = 9;
    TablePrinter mailbox_table(
        {"shards", "median tick", "ticks/s", "vs mutex baseline"});
    const struct {
      uint32_t shards;
      double baseline_us;
    } mailbox_rows[] = {{8, baseline_k8_us}, {16, baseline_k16_us}};
    for (const auto& row : mailbox_rows) {
      auto tick_or = MeasureMailboxTick(dir, params, row.shards, kMailboxReps);
      if (!tick_or.ok()) {
        std::fprintf(stderr, "mailbox run failed: %s\n",
                     tick_or.status().ToString().c_str());
        return 1;
      }
      const double median = tick_or.value();
      char vs_cell[32];
      if (row.baseline_us > 0) {
        std::snprintf(vs_cell, sizeof(vs_cell), "%.2fx",
                      median / (row.baseline_us * 1e-6));
      } else {
        std::snprintf(vs_cell, sizeof(vs_cell), "-");
      }
      mailbox_table.AddRow({std::to_string(row.shards), bench::Sec(median),
                            std::to_string(static_cast<uint64_t>(1.0 / median)),
                            vs_cell});
      bench::JsonEmitter::Row& json_row =
          json.AddRow("mailbox")
              .Int("shards", row.shards)
              .Int("reps", kMailboxReps)
              .Num("median_tick_seconds", median)
              .Num("ticks_per_second", 1.0 / median);
      if (row.baseline_us > 0) {
        json_row.Num("mutex_baseline_avg_tick_seconds", row.baseline_us * 1e-6)
            .Num("vs_mutex_baseline", median / (row.baseline_us * 1e-6));
      }
    }
    std::printf("\n");
    bench::Emit(mailbox_table, ctx.csv());
    std::printf(
        "\n# mailbox: median per-tick cost of pushing a wide "
        "fleet's tick batches through every mailbox AND draining them "
        "(checkpoint starts pushed past the run, unpaced, timed from a "
        "warmed-up drained start through the final WaitForIdle), over %d "
        "runs -- the drain is included so deferred runner work cannot hide "
        "past the window; pass --baseline-k8-tick-us/--baseline-k16-tick-us "
        "from a mutex-mailbox build of this bench to populate the ratio\n",
        kMailboxReps);
  }

  // --mailbox-only stops here: a fast (~2 min) run of just the section
  // above, for producing the baseline numbers from an old-mailbox build
  // -- its medians are what --baseline-k8-tick-us/--baseline-k16-tick-us
  // expect (in microseconds) -- back-to-back with the full bench on the
  // new one (the per-tick cost swings with machine load, so the two
  // sides should be measured within minutes of each other).
  if (ctx.flags().GetBool("mailbox-only", false)) {
    json.WriteFile(ctx.flags().GetString("json", "BENCH_sharded_engine.json"));
    return 0;
  }

  TablePrinter table({"shards", "schedule", "ckpts", "avg write",
                      "max write", "avg pause", "defer", "vs solo",
                      "avg tick", "model"});
  double solo_avg = 0.0;
  for (const RowSpec& row : rows) {
    auto result_or = RunFleet(dir, params, row.shards, row.schedule);
    if (!result_or.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    const FleetResult& run = result_or.value();
    const ShardedCheckpointStats stats = run.stats;
    if (row.shards == 1) solo_avg = stats.avg_total_seconds;
    const double ratio =
        solo_avg > 0 ? stats.avg_total_seconds / solo_avg : 0.0;
    char ratio_cell[32];
    std::snprintf(ratio_cell, sizeof(ratio_cell), "%.2fx", ratio);
    const double model =
        row.schedule == Schedule::kSynchronized && row.shards > 1
            ? model_solo * row.shards
            : model_solo;
    table.AddRow({std::to_string(row.shards), ScheduleName(row.schedule),
                  std::to_string(stats.checkpoints),
                  bench::Sec(stats.avg_total_seconds),
                  bench::Sec(stats.max_total_seconds),
                  bench::Sec(stats.avg_sync_seconds),
                  std::to_string(run.deferrals), ratio_cell,
                  bench::Sec(run.avg_tick_seconds()), bench::Sec(model)});
    json.AddRow("checkpoint")
        .Int("shards", row.shards)
        .Str("schedule", ScheduleName(row.schedule))
        .Int("checkpoints", stats.checkpoints)
        .Num("avg_write_seconds", stats.avg_total_seconds)
        .Num("max_write_seconds", stats.max_total_seconds)
        .Num("avg_pause_seconds", stats.avg_sync_seconds)
        .Int("deferrals", run.deferrals)
        .Num("vs_solo", ratio)
        .Num("avg_tick_seconds", run.avg_tick_seconds())
        .Num("max_tick_seconds", run.max_tick_seconds)
        .Num("ticks_per_second", run.ticks_per_second());
  }
  std::printf("\n");
  bench::Emit(table, ctx.csv());

  // ---- Consistent-cut acquisition vs plain staggered operation ----
  //
  // Same fleets, but a fleet-wide consistent cut is requested at the
  // halfway tick: every shard checkpoints at one coordinator-chosen tick T
  // and the manifest commits once all shards ack. "max stall" is the
  // slowest shard's mutator block inside the cut tick's EndTick; "stall
  // ticks" converts it to tick periods at --tick-hz; "base max tick" is
  // the worst tick of the SAME fleet running plain staggered (no cut).
  struct CutRowSpec {
    uint32_t shards;
    Schedule schedule;
  };
  const CutRowSpec cut_rows[] = {
      {2, Schedule::kStaggered},
      {4, Schedule::kStaggered},
      {4, Schedule::kAdaptive},
  };
  TablePrinter cut_table({"shards", "schedule", "cut tick", "commit latency",
                          "max stall", "stall ticks", "base max tick",
                          "cut max tick"});
  for (const CutRowSpec& row : cut_rows) {
    auto base_or = RunFleet(dir, params, row.shards, row.schedule,
                            /*with_cut=*/false);
    auto cut_or = RunFleet(dir, params, row.shards, row.schedule,
                           /*with_cut=*/true);
    if (!base_or.ok() || !cut_or.ok()) {
      std::fprintf(stderr, "cut run failed: %s\n",
                   (!base_or.ok() ? base_or.status() : cut_or.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    const FleetResult& cut = cut_or.value();
    const double stall_ticks =
        tick_hz > 0 ? cut.cut.max_shard_stall_seconds * tick_hz : 0.0;
    char stall_cell[32];
    std::snprintf(stall_cell, sizeof(stall_cell), "%.2f", stall_ticks);
    cut_table.AddRow({std::to_string(row.shards), ScheduleName(row.schedule),
                      std::to_string(cut.cut.cut_tick),
                      bench::Sec(cut.cut.commit_latency_seconds),
                      bench::Sec(cut.cut.max_shard_stall_seconds),
                      stall_cell,
                      bench::Sec(base_or.value().max_tick_seconds),
                      bench::Sec(cut.max_tick_seconds)});
    json.AddRow("cut")
        .Int("shards", row.shards)
        .Str("schedule", ScheduleName(row.schedule))
        .Int("cut_tick", cut.cut.cut_tick)
        .Num("commit_latency_seconds", cut.cut.commit_latency_seconds)
        .Num("max_stall_seconds", cut.cut.max_shard_stall_seconds)
        .Num("base_max_tick_seconds", base_or.value().max_tick_seconds)
        .Num("cut_max_tick_seconds", cut.max_tick_seconds);
  }
  std::printf("\n");
  bench::Emit(cut_table, ctx.csv());

  std::printf(
      "\n# consistent cut: acquiring a fleet-wide cut costs each shard one "
      "synchronous checkpoint at tick T (drain the in-flight flush, then "
      "write blocking); expect the max stall to stay within a handful of "
      "tick periods of the staggered baseline's worst tick, and commit "
      "latency ~ cut lead + slowest shard's write\n");

  // ---- Zone migration at a committed cut (the rebalance cost row) ----
  //
  // Partition 0 moves to the fresh shard slot K at the halfway cut:
  // "commit" is the cut's commit latency, "move" the MigratePartition wall
  // time (source drain + destination bootstrap + epoch-manifest commit),
  // and "reopen" a full no-config Fleet::Open (recover + resume) of the
  // migrated root afterwards. "pre/post write" compare steady-state
  // checkpoint times on either side of the epoch boundary -- rebalancing
  // must not degrade the write path.
  TablePrinter migration_table({"shards", "cut commit", "move", "reopen",
                                "pre ckpts", "pre write", "post ckpts",
                                "post write"});
  for (const uint32_t shards : {2u, 4u}) {
    auto result_or = RunMigrationFleet(dir, params, shards);
    if (!result_or.ok()) {
      std::fprintf(stderr, "migration run failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    const MigrationRunResult& row = result_or.value();
    migration_table.AddRow(
        {std::to_string(shards), bench::Sec(row.cut.commit_latency_seconds),
         bench::Sec(row.move.move_seconds), bench::Sec(row.reopen_seconds),
         std::to_string(row.pre.checkpoints),
         bench::Sec(row.pre.avg_total_seconds),
         std::to_string(row.post.checkpoints),
         bench::Sec(row.post.avg_total_seconds)});
    json.AddRow("migration")
        .Int("shards", shards)
        .Num("cut_commit_seconds", row.cut.commit_latency_seconds)
        .Num("move_seconds", row.move.move_seconds)
        .Num("reopen_seconds", row.reopen_seconds)
        .Num("pre_avg_write_seconds", row.pre.avg_total_seconds)
        .Num("post_avg_write_seconds", row.post.avg_total_seconds);
  }
  std::printf("\n");
  bench::Emit(migration_table, ctx.csv());
  std::printf(
      "\n# migration: the move is dominated by one synchronous full write "
      "of the partition into its new shard directory (the destination "
      "bootstrap); expect it near the solo checkpoint write time, commit "
      "latency to match the cut table, and post-move checkpoint times to "
      "stay at the pre-move level (the topology change is metadata, not a "
      "new write path)\n");

  // ---- Hot failover: peer-memory rebuild vs disk recovery ----
  //
  // The replication payoff row: one shard of a replicated fleet crashes
  // and the SAME dead directory is recovered both ways -- a timed disk
  // Recover (restore the newest checkpoint + replay the logical log) and
  // FailoverShard's rebuild from the peer's in-memory delta ring. The two
  // results must digest-match; the ratio is what hot failover buys.
  {
    TablePrinter failover_table({"shards", "crash tick", "peer rebuild",
                                 "disk recover", "speedup", "resume",
                                 "exact"});
    for (const uint32_t shards : {2u, 4u}) {
      auto result_or = RunFailoverFleet(dir, params, shards);
      if (!result_or.ok()) {
        std::fprintf(stderr, "failover run failed: %s\n",
                     result_or.status().ToString().c_str());
        return 1;
      }
      const FailoverRunResult& run = result_or.value();
      const double speedup =
          run.report.rebuild_seconds > 0
              ? run.disk_recover_seconds / run.report.rebuild_seconds
              : 0.0;
      char peer_cell[32], disk_cell[32], speedup_cell[32];
      std::snprintf(peer_cell, sizeof(peer_cell), "%.3f ms",
                    run.report.rebuild_seconds * 1e3);
      std::snprintf(disk_cell, sizeof(disk_cell), "%.3f ms",
                    run.disk_recover_seconds * 1e3);
      std::snprintf(speedup_cell, sizeof(speedup_cell), "%.1fx", speedup);
      failover_table.AddRow(
          {std::to_string(shards), std::to_string(run.report.rebuilt_ticks),
           peer_cell, disk_cell,
           speedup_cell, bench::Sec(run.report.resume_seconds),
           run.report.used_peer_memory && run.digests_match ? "yes" : "NO"});
      json.AddRow("failover")
          .Int("shards", shards)
          .Int("crash_tick", run.report.rebuilt_ticks)
          .Bool("used_peer_memory", run.report.used_peer_memory)
          .Num("peer_rebuild_seconds", run.report.rebuild_seconds)
          .Num("disk_recover_seconds", run.disk_recover_seconds)
          .Num("speedup_vs_disk", speedup)
          .Num("resume_seconds", run.report.resume_seconds)
          .Bool("digests_match", run.digests_match);
    }
    std::printf("\n");
    bench::Emit(failover_table, ctx.csv());
    std::printf(
        "\n# failover: 'peer rebuild' is FailoverShard's in-memory path "
        "(copy the peer's base snapshot + re-apply its buffered delta "
        "batches), 'disk recover' the conventional restore+replay of the "
        "same dead shard directory, and 'resume' the bootstrap checkpoint "
        "+ runner restart that returns the shard to service; expect the "
        "memory path faster than disk -- it never touches the recovery "
        "disk, but it still copies the whole partition, so a large state "
        "narrows the gap -- with 'exact' confirming the two rebuilds "
        "digest-match\n");
  }

  std::printf(
      "\n# reading: synchronized starts make all K writer threads flush at "
      "once, so each checkpoint write sees ~1/K of the disk and stretches "
      "toward Kx the solo time; staggered starts offset shard i by "
      "i*period/K ticks so writes do not overlap and per-checkpoint time "
      "stays near solo (expect max write within ~1.2x of the solo row); "
      "adaptive keeps at most --budget flushes concurrent by planning "
      "starts from measured write-time EWMAs (defer counts budget "
      "deferrals). Each shard paces on its own mutator thread (the model "
      "column is the cost-model projection from bench_shard_stagger at "
      "Table 3 bandwidth -- measured numbers track its shape, not its "
      "absolute seconds, on faster disks)\n");

  // ---- The game workload per shard count (the Table 5 analogue) ----
  //
  // Same fleet geometry, but the updates come from K real Knights-and-
  // Archers zone worlds instead of the synthetic uniform workload: the
  // update rate and skew are whatever the game logic produces, the run
  // ends in a crash, and recovery is timed and digest-verified.
  const uint64_t game_units = ctx.flags().GetInt64("game-units", 8000);
  const uint64_t game_ticks = ctx.flags().GetInt64("game-ticks", 40);
  std::printf("\nGame workload (%llu units/zone, %llu ticks, %s)\n",
              static_cast<unsigned long long>(game_units),
              static_cast<unsigned long long>(game_ticks),
              AlgorithmName(*algo));
  TablePrinter game_table({"shards", "ckpts", "avg write", "max write",
                           "avg tick", "max tick", "updates", "recovery",
                           "exact"});
  for (const uint32_t shards : {1u, 2u, 4u}) {
    std::filesystem::remove_all(dir);
    game::GameShardAdapterConfig game_config;
    game_config.zone_world.num_units = static_cast<uint32_t>(game_units);
    game_config.zone_world.map_size = 1024;
    game_config.zone_world.spawn_radius = 400;
    game_config.zone_world.seed = 7;
    game_config.engine.shard.algorithm = *algo;
    game_config.engine.shard.dir = dir;
    game_config.engine.shard.fsync = fsync;
    game_config.engine.num_shards = shards;
    game_config.engine.checkpoint_period_ticks = period;
    game_config.engine.disk_budget = static_cast<uint32_t>(budget);
    auto game_or = game::MeasureGameFleet(game_config, game_ticks, tick_hz);
    if (!game_or.ok()) {
      std::fprintf(stderr, "game run failed: %s\n",
                   game_or.status().ToString().c_str());
      return 1;
    }
    const game::GameFleetBenchResult& game_row = game_or.value();
    game_table.AddRow(
        {std::to_string(shards),
         std::to_string(game_row.checkpoints.checkpoints),
         bench::Sec(game_row.checkpoints.avg_total_seconds),
         bench::Sec(game_row.checkpoints.max_total_seconds),
         bench::Sec(game_row.avg_tick_seconds),
         bench::Sec(game_row.max_tick_seconds),
         std::to_string(game_row.updates),
         bench::Sec(game_row.recovery_seconds),
         game_row.digests_match ? "yes" : "NO"});
    json.AddRow("game")
        .Int("shards", shards)
        .Int("checkpoints", game_row.checkpoints.checkpoints)
        .Num("avg_write_seconds", game_row.checkpoints.avg_total_seconds)
        .Num("max_write_seconds", game_row.checkpoints.max_total_seconds)
        .Num("avg_tick_seconds", game_row.avg_tick_seconds)
        .Num("max_tick_seconds", game_row.max_tick_seconds)
        .Int("updates", game_row.updates)
        .Num("recovery_seconds", game_row.recovery_seconds)
        .Bool("digests_match", game_row.digests_match);
    std::filesystem::remove_all(dir);
  }
  std::printf("\n");
  bench::Emit(game_table, ctx.csv());
  std::printf(
      "\n# reading: each game row runs K zone worlds (one World per shard, "
      "stepped in parallel) through the fleet with staggered starts; "
      "'updates' counts the game's own attribute writes mailed to the "
      "engines (bulk load excluded), 'recovery' times the manifest-driven "
      "Fleet::Recover over all K partitions, and 'exact' digest-compares "
      "every recovered partition against its live zone world\n");
  json.WriteFile(ctx.flags().GetString("json", "BENCH_sharded_engine.json"));
  ctx.Finish();
  return 0;
}
