// Figure 4: overhead (a), checkpoint time (b), and recovery time (c) as the
// Zipf skew parameter varies from 0 to 0.99 at 64,000 updates per tick.
//
// Extension section (--fleet): the same skew question asked of the LIVE
// sharded fleet -- a Zipf-weighted "skewed battle" concentrates writes on
// one partition, and the run is repeated with load-driven auto-rebalancing
// off and on (rebalancer.h). With a mount root on a faster device
// (/dev/shm when available) the migrated hot partition checkpoints at
// that device's speed, and the fleet's max per-shard smoothed checkpoint
// write time drops; both runs land in BENCH_fig4_skew.json.
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench/bench_util.h"
#include "engine/fleet.h"
#include "engine/mutator.h"
#include "game/shard_adapter.h"
#include "util/io.h"

using namespace tickpoint;

namespace {

/// Removes a directory tree when the enclosing scope exits, so the fleet
/// run's working dirs (including spawned off-root shard slots under the
/// mount root) are cleaned up on EVERY path out of RunSkewedFleet -- the
/// TP_RETURN_NOT_OK early exits used to leak them.
struct ScopedRemoveAll {
  std::string path;
  ~ScopedRemoveAll() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

struct SkewFleetResult {
  uint32_t migrations = 0;
  uint32_t hot_partition = 0;
  uint32_t to_slot = 0;
  uint64_t decided_tick = 0;
  /// Max over shards of the scheduler's smoothed checkpoint write time at
  /// the end of the run -- the number rebalancing is supposed to shrink.
  double max_shard_ewma_write_seconds = 0.0;
  double hot_shard_ewma_write_seconds = 0.0;
  double wall_seconds = 0.0;
};

/// One skewed-battle fleet run. Per-tick update counts follow the zones'
/// Zipf activity profile (partition 0 hottest), so the fleet sees the
/// figure's skew knob as PLACEMENT imbalance rather than cell-level
/// locality. Ticks are paced so the runner threads observe the load as it
/// happens (an unpaced enqueue burst outruns them).
StatusOr<SkewFleetResult> RunSkewedFleet(const std::string& dir,
                                         const std::string& mount_root,
                                         uint32_t num_shards, uint64_t ticks,
                                         uint64_t hot_updates_per_tick,
                                         double skew, double tick_hz,
                                         bool fsync, bool rebalance) {
  std::filesystem::remove_all(dir);
  ScopedRemoveAll dir_guard{dir};
  ScopedRemoveAll mount_guard{mount_root};
  ShardedEngineConfig config;
  // Large enough (20,480 atomic objects, ~10 MB) that a checkpoint's dirty
  // set stays proportional to the shard's update rate; a smaller state
  // saturates every object each period and all shards write identical
  // volumes, hiding the load skew from the write-time EWMAs.
  config.shard.layout = StateLayout::Small(262144, 10);
  config.shard.algorithm = AlgorithmKind::kCopyOnUpdate;
  config.shard.dir = dir;
  config.shard.fsync = fsync;
  config.shard.full_flush_period = 4;
  config.num_shards = num_shards;
  // A wide stagger (K shards spread over 10 ticks = 500 ms at the default
  // 20 Hz) keeps concurrent checkpoints off the device so each shard's
  // write time reflects its own dirty volume, not its queue position.
  config.checkpoint_period_ticks = 10;
  // Adaptive stagger so the scheduler learns per-shard write-time EWMAs --
  // the measurement the rebalance contrast is about.
  config.adaptive = true;
  TP_ASSIGN_OR_RETURN(auto fleet, Fleet::Create(dir, config));
  if (rebalance) {
    RebalancePolicy policy;
    policy.imbalance_ratio = 2.0;
    policy.hysteresis_ticks = 5;
    policy.warmup_ticks = 10;
    policy.cooldown_ticks = 32;
    policy.max_migrations = 1;
    policy.spawn_mount_root = mount_root;
    TP_RETURN_NOT_OK(fleet->EnableAutoRebalance(policy));
  }

  const std::vector<double> weights =
      game::GameShardAdapter::ZipfZoneActivity(num_shards, skew);
  const uint64_t num_cells = config.shard.layout.num_cells();
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::duration<double> tick_period(
      tick_hz > 0 ? 1.0 / tick_hz : 0.0);
  for (uint64_t tick = 0; tick < ticks; ++tick) {
    fleet->BeginTick();
    for (uint32_t p = 0; p < num_shards; ++p) {
      const uint64_t updates = static_cast<uint64_t>(
          static_cast<double>(hot_updates_per_tick) * weights[p]);
      for (uint64_t i = 0; i < updates; ++i) {
        const uint32_t cell = WorkloadCell(p, tick, i, num_cells);
        fleet->ApplyUpdate(p, cell, static_cast<int32_t>(tick * 131 + i));
      }
    }
    TP_RETURN_NOT_OK(fleet->EndTick());
    if (tick_hz > 0) {
      std::this_thread::sleep_until(start + (tick + 1) * tick_period);
    }
  }
  TP_RETURN_NOT_OK(fleet->WaitForIdle());
  SkewFleetResult result;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const StaggerScheduler& scheduler = fleet->engine().scheduler();
  for (uint32_t p = 0; p < num_shards; ++p) {
    std::fprintf(stderr, "    partition %u ewma write %.6f s\n", p,
                 scheduler.EwmaWriteSeconds(p));
    result.max_shard_ewma_write_seconds = std::max(
        result.max_shard_ewma_write_seconds, scheduler.EwmaWriteSeconds(p));
  }
  result.hot_shard_ewma_write_seconds = scheduler.EwmaWriteSeconds(0);
  if (rebalance && fleet->rebalancer()->migrations() > 0) {
    result.migrations = fleet->rebalancer()->migrations();
    result.hot_partition = fleet->rebalancer()->last_event().partition;
    result.to_slot = fleet->rebalancer()->last_event().to_slot;
    result.decided_tick = fleet->rebalancer()->last_event().decided_tick;
  }
  TP_RETURN_NOT_OK(fleet->Shutdown());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchContext ctx(argc, argv, "bench_fig4_skew",
                          "Paper Figure 4(a-c): effect of update skew");
  const uint64_t ticks = ctx.flags().GetInt64("ticks", 200);
  const uint64_t rate = ctx.flags().GetInt64("rate", 64000);
  char params[128];
  std::snprintf(params, sizeof(params),
                "10M cells, %llu updates/tick, %llu ticks (paper: 1000)",
                static_cast<unsigned long long>(rate),
                static_cast<unsigned long long>(ticks));
  ctx.PrintHeader(params);

  const std::vector<double> skews = {0.0, 0.2, 0.4, 0.6, 0.8, 0.99};
  std::vector<std::vector<AlgorithmRunResult>> all_results;
  for (double skew : skews) {
    ZipfTraceConfig trace;
    trace.layout = StateLayout::Paper();
    trace.num_ticks = ticks;
    trace.updates_per_tick = rate;
    trace.theta = skew;
    all_results.push_back(bench::RunZipf(trace, SimulationOptions{}));
    std::fprintf(stderr, "  skew %.2f done\n", skew);
  }

  auto print_metric = [&](const char* title,
                          double (*metric)(const AlgorithmRunResult&)) {
    std::vector<std::string> headers = {"skew"};
    for (AlgorithmKind kind : AllAlgorithms()) {
      headers.push_back(GetTraits(kind).short_name);
    }
    TablePrinter table(headers);
    for (size_t s = 0; s < skews.size(); ++s) {
      std::vector<std::string> row = {TablePrinter::Num(skews[s], 2)};
      for (const auto& result : all_results[s]) {
        row.push_back(bench::Sec(metric(result)));
      }
      table.AddRow(std::move(row));
    }
    std::printf("\n%s\n", title);
    bench::Emit(table, ctx.csv());
  };

  print_metric("Figure 4(a): average overhead time per tick",
               [](const AlgorithmRunResult& r) {
                 return r.avg_overhead_seconds;
               });
  print_metric("Figure 4(b): average time to checkpoint",
               [](const AlgorithmRunResult& r) {
                 return r.avg_checkpoint_seconds;
               });
  print_metric("Figure 4(c): estimated recovery time",
               [](const AlgorithmRunResult& r) { return r.recovery_seconds; });

  std::printf(
      "\n# paper 4(a): naive unaffected (lowest at this rate); others within "
      "2.5x; cou-family benefits most from skew (fewer distinct dirty "
      "objects)\n"
      "# paper 4(b): most methods ~constant; partial-redo checkpoint time "
      "falls with skew\n"
      "# paper 4(c): partial-redo recovery falls 7.3 s -> 6.3 s with skew; "
      "others flat ~1.4 s\n");

  // ---- Extension: the skewed battle on the LIVE fleet, rebalance off/on ----
  if (ctx.flags().GetBool("fleet", true)) {
    const uint32_t fleet_shards =
        static_cast<uint32_t>(ctx.flags().GetInt64("fleet-shards", 4));
    const uint64_t fleet_ticks = ctx.flags().GetInt64("fleet-ticks", 150);
    // 2,000 updates/tick on the hot zone at 20 Hz keeps the fleet's total
    // checkpoint bandwidth under a laptop disk's capacity; oversubscribing
    // the device equalizes every shard's write time behind the queue and
    // erases the skew signal this section measures.
    const uint64_t fleet_rate = ctx.flags().GetInt64("fleet-rate", 2000);
    const double fleet_skew = ctx.flags().GetDouble("fleet-skew", 0.9);
    const double fleet_hz = ctx.flags().GetDouble("fleet-hz", 20.0);
    const bool fleet_fsync = ctx.flags().GetBool("fleet-fsync", true);
    const std::string dir = ctx.flags().GetString(
        "fleet-dir",
        (std::filesystem::temp_directory_path() / "tp_bench_fig4_fleet")
            .string());
    // Spawned slots land on the fastest distinct device at hand: tmpfs
    // when available (CI containers always have /dev/shm), else under the
    // fleet root (the migration still runs; the contrast just shrinks).
    std::string mount_root = "/dev/shm/tp_bench_fig4_spawn";
    if (!EnsureDirectory(mount_root).ok()) mount_root.clear();

    std::printf(
        "\nExtension: skewed battle on the sharded fleet (K=%u, Zipf %.2f "
        "zone activity, hot zone %llu updates/tick, auto-rebalance off vs "
        "on, spawn mount: %s)\n",
        fleet_shards, fleet_skew,
        static_cast<unsigned long long>(fleet_rate),
        mount_root.empty() ? "<fleet root>" : mount_root.c_str());
    bench::JsonEmitter json("bench_fig4_skew");
    TablePrinter fleet_table({"auto-rebalance", "migrations",
                              "hot ewma write", "max shard ewma write",
                              "wall time"});
    for (const bool rebalance : {false, true}) {
      auto result_or = RunSkewedFleet(dir, rebalance ? mount_root : "",
                                      fleet_shards, fleet_ticks, fleet_rate,
                                      fleet_skew, fleet_hz, fleet_fsync,
                                      rebalance);
      if (!result_or.ok()) {
        std::fprintf(stderr, "fleet run failed: %s\n",
                     result_or.status().ToString().c_str());
        break;
      }
      const SkewFleetResult& run = result_or.value();
      fleet_table.AddRow({rebalance ? "on" : "off",
                          std::to_string(run.migrations),
                          bench::Sec(run.hot_shard_ewma_write_seconds),
                          bench::Sec(run.max_shard_ewma_write_seconds),
                          bench::Sec(run.wall_seconds)});
      json.AddRow("rebalance_skew")
          .Bool("rebalance", rebalance)
          .Int("shards", fleet_shards)
          .Num("zipf_skew", fleet_skew)
          .Int("ticks", fleet_ticks)
          .Int("hot_updates_per_tick", fleet_rate)
          .Bool("fsync", fleet_fsync)
          .Str("spawn_mount_root", rebalance ? mount_root : "")
          .Int("migrations", run.migrations)
          .Int("hot_partition", run.hot_partition)
          .Int("to_slot", run.to_slot)
          .Int("decided_tick", run.decided_tick)
          .Num("hot_shard_ewma_write_seconds",
               run.hot_shard_ewma_write_seconds)
          .Num("max_shard_ewma_write_seconds",
               run.max_shard_ewma_write_seconds)
          .Num("wall_seconds", run.wall_seconds);
      std::fprintf(stderr, "  rebalance %s done\n", rebalance ? "on" : "off");
    }
    std::printf("\n");
    bench::Emit(fleet_table, ctx.csv());
    std::printf(
        "\n# reading: with rebalancing ON the detector moves the hot zone "
        "to a freshly spawned slot on the mount root; its subsequent "
        "checkpoints run at that device's write speed, so the max per-shard "
        "smoothed checkpoint write time drops vs the OFF run (the drop "
        "requires the mount to actually be the faster device -- with both "
        "on one disk the migration only relocates, it cannot speed up)\n");
    json.WriteFile(ctx.flags().GetString("json", "BENCH_fig4_skew.json"));
  }
  ctx.Finish();
  return 0;
}
