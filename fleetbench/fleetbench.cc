// Fleet benchmark: drives a K=2 tickpoint Fleet through one of three named
// workloads from a single generator thread and prints every end-to-end
// metric with its unit, sample count and a correctness verdict. The last
// line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (untraced run, --trace 0) or the per-layer
// metrics (traced run, --trace 1).
//
// Workloads (all: 2 shards, fsync on, logical log synced every tick, async
// IO backend, checkpoints staggered every 8 ticks, no auto-rebalance):
//   cou-30hz         Copy-on-Update on the double-backup organization,
//                    2 x 8 MB, Zipf 0.8 updates, open loop at 30 Hz, a
//                    consistent cut every 32 ticks, retention off.
//   pit-history      Partial-Redo on the log organization with retention
//                    (8 generations), same trace, closed loop, a cut every
//                    32 ticks.
//   battle-failover  Knights-and-Archers, 2 zones x 40,000 units, replication
//                    on, open loop at 30 Hz, a cut every 32 ticks and a
//                    shard crash + FailoverShard every 50 ticks.
//
// Metrics marked report-only are printed but left out of the result line.
// End to end these are the tick, cut and failover latencies and the tick
// rate: each waits on small fsyncs, on the writers' disk bandwidth or on the
// game step while the disk or CPU is shared, and on a shared host their
// run-to-run medians moved by more than any bound a regression check can
// use (the open-loop tick tail most of all: after each cut tick it carries a
// backlog, so it moves about four times as much as cut latency). Per layer
// they are the timings that are 0 by construction on some workload.
//
// Every workload ends the same way, so every end-to-end metric exists on
// every workload: failovers (the synthetic workloads run theirs here, on the
// disk path because replication is off), a final consistent cut, a fleet
// crash, repeated Fleet::Recover, and repeated restores to an earlier tick
// (Fleet::RecoverToTick across RestorableWindow with retention on,
// Fleet::RecoverToCut otherwise). Each recovered or restored state is
// checked against an oracle: the trace replayed onto bare StateTables for
// the synthetic workloads, zone digests for the game.
//
// Usage:
//   fleetbench --workload cou-30hz --seed 1 --seconds 30 --trace 0
//              --root <scratch dir for the fleet> [--ticks N] [--setups N]
//              [--spans <tsv path>] [--git-sha S] [--src-digest D]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/checkpoint_store.h"
#include "engine/engine.h"
#include "engine/fleet.h"
#include "engine/history.h"
#include "engine/logical_log.h"
#include "game/shard_adapter.h"
#include "harness.h"
#include "trace/zipf_source.h"
#include "util/random.h"

namespace fleetbench {
namespace {

using tickpoint::AlgorithmKind;
using tickpoint::CellUpdate;
using tickpoint::Fleet;
using tickpoint::ShardedEngine;
using tickpoint::ShardedEngineConfig;
using tickpoint::StateLayout;
using tickpoint::StateTable;
using tickpoint::Status;

constexpr uint32_t kShards = 2;
constexpr double kTickHz = 30.0;
constexpr uint64_t kCutEvery = 32;
constexpr uint64_t kWarmupTicks = 16;
constexpr uint64_t kUpdatesPerShard = 2000;
/// Repeated operations of the ending (recoveries, cut restores, the
/// synthetic workloads' failovers) run at least kMinRepeats times and for at
/// least kMinRepeatSeconds, at most kMaxRepeats times: cheap operations get
/// enough samples for a steady median.
constexpr int kMinRepeats = 9;
constexpr double kMinRepeatSeconds = 1.0;
constexpr int kMaxRepeats = 60;
/// Point-in-time restore targets, spread evenly across the window.
constexpr int kPitTargets = 9;
constexpr uint64_t kTicksBetweenEndingFailovers = 4;
/// Ticks between the final cut and the fleet crash: a log tail for
/// Fleet::Recover to replay, short enough that the cut image survives.
constexpr uint64_t kTicksAfterFinalCut = 5;
constexpr int kLayerReadRepeats = 3;
/// A tick counts as late when it starts this long after its due time.
constexpr double kLateMs = 1.0;
/// Span accounting tolerance: a traced tick's spans must cover its
/// start-to-end time to within the larger of these two.
constexpr double kSpanToleranceUs = 20.0;
constexpr double kSpanToleranceShare = 0.02;

struct WorkloadSpec {
  const char* name;
  bool open_loop;
  bool game;
  AlgorithmKind algorithm;
  bool retention;
  /// Shard crash + FailoverShard every this many timed ticks; 0 = the
  /// failovers run in the ending instead.
  uint64_t failover_every;
};

const WorkloadSpec kWorkloads[] = {
    {"cou-30hz", true, false, AlgorithmKind::kCopyOnUpdate, false, 0},
    {"pit-history", false, false, AlgorithmKind::kPartialRedo, true, 0},
    {"battle-failover", true, true, AlgorithmKind::kCopyOnUpdate, false, 50},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  uint64_t ticks = 0;  // > 0: run exactly this many timed ticks (smoke)
  int setups = 5;
  std::string root;
  std::string spans_path;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

ShardedEngineConfig FleetConfig(const WorkloadSpec& spec) {
  ShardedEngineConfig config;
  config.shard.layout = StateLayout::Small(200000, 10);  // 8 MB per shard
  config.shard.algorithm = spec.algorithm;
  config.shard.fsync = true;
  config.shard.logical_sync_every = 1;
  config.shard.io_backend = tickpoint::IoBackendKind::kAsync;
  config.shard.retention.enabled = spec.retention;
  config.shard.retention.max_generations = 8;
  config.num_shards = kShards;
  config.checkpoint_period_ticks = 8;
  config.staggered = true;
  config.threaded = true;
  config.replicate = spec.game;
  return config;
}

uint64_t Mix(uint64_t x) { return tickpoint::SplitMix64(&x); }

/// True while a repeated operation that has run `done` times since `start`
/// should run again.
bool RepeatAgain(int done, Clock::time_point start) {
  if (done < kMinRepeats) return true;
  return done < kMaxRepeats &&
         Seconds(Clock::now() - start) < kMinRepeatSeconds;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What the harness needs from a workload: a fleet, the per-tick work, and
/// the correctness oracle.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Creates the fleet under `root` (a new, empty directory).
  virtual Status Create(const std::string& root) = 0;
  virtual Fleet* fleet() = 0;
  /// Untimed: produces the inputs of the next fleet tick.
  virtual void Prepare() {}
  /// Timed: the tick's work through Fleet::EndTick. Records its spans on
  /// `tracer` when non-null and adds the tick's user updates to *updates.
  virtual Status Submit(Tracer* tracer, uint64_t request,
                        uint64_t* updates) = 0;
  /// Untimed: after the fleet applied the tick.
  virtual void AfterTick() {}
  /// Untimed: the fleet just applied cut tick `tick`.
  virtual void OnCutTick(uint64_t /*tick*/) {}

  /// Oracle: partition `p`'s table equals the state at the fleet tick.
  virtual bool PartitionMatchesLive(uint32_t p, const StateTable& t) = 0;
  /// Oracle: every partition's table equals the state at the end of `tick`.
  virtual bool MatchesAt(uint64_t tick,
                         const std::vector<StateTable>& tables) = 0;

  /// Bytes of live state across the fleet (the space_amp base).
  virtual double LiveStateBytes() const = 0;

  bool MatchesLive(const std::vector<StateTable>& tables) {
    for (uint32_t p = 0; p < tables.size(); ++p) {
      if (!PartitionMatchesLive(p, tables[p])) return false;
    }
    return true;
  }

  // Per-layer samples only a workload can take.
  Samples apply_ns_per_update;
  Samples end_tick_us;
  Samples game_tick_ms;
  Samples game_updates_per_tick;
};

/// The synthetic Zipf trace of one fleet: per shard a ZipfUpdateSource over
/// scattered rows, values derived from (seed, tick, shard, index).
class SyntheticTrace {
 public:
  SyntheticTrace(const StateLayout& layout, uint64_t seed) : seed_(seed) {
    for (uint32_t p = 0; p < kShards; ++p) {
      tickpoint::ZipfTraceConfig config;
      config.layout = layout;
      config.num_ticks = UINT64_MAX;
      config.updates_per_tick = kUpdatesPerShard;
      config.theta = 0.8;
      config.seed = Mix(seed * kShards + p + 1);
      config.scatter_rows = true;
      sources_.push_back(std::make_unique<tickpoint::ZipfUpdateSource>(config));
    }
  }

  /// Fills (*out)[p] with the next tick's updates for every shard.
  void Next(std::vector<std::vector<CellUpdate>>* out) {
    out->resize(kShards);
    for (uint32_t p = 0; p < kShards; ++p) {
      sources_[p]->NextTick(&cells_);
      auto& updates = (*out)[p];
      updates.resize(cells_.size());
      for (size_t i = 0; i < cells_.size(); ++i) {
        const uint64_t key = Mix(seed_ ^ (tick_ << 24) ^ (uint64_t{p} << 20) ^ i);
        updates[i] = CellUpdate{cells_[i], static_cast<int32_t>(key)};
      }
    }
    ++tick_;
  }

  uint64_t tick() const { return tick_; }

 private:
  uint64_t seed_;
  uint64_t tick_ = 0;
  std::vector<std::unique_ptr<tickpoint::ZipfUpdateSource>> sources_;
  std::vector<tickpoint::TraceCell> cells_;
};

class SyntheticWorkload : public Workload {
 public:
  SyntheticWorkload(const WorkloadSpec& spec, uint64_t seed)
      : config_(FleetConfig(spec)),
        seed_(seed),
        trace_(config_.shard.layout, seed) {
    for (uint32_t p = 0; p < kShards; ++p) {
      live_.emplace_back(config_.shard.layout);
      live_.back().Clear();
    }
  }

  Status Create(const std::string& root) override {
    auto fleet_or = Fleet::Create(root, config_);
    if (!fleet_or.ok()) return fleet_or.status();
    fleet_ = std::move(fleet_or.value());
    return Status::OK();
  }
  Fleet* fleet() override { return fleet_.get(); }

  void Prepare() override { trace_.Next(&next_); }

  Status Submit(Tracer* tracer, uint64_t request, uint64_t* updates) override {
    const auto t0 = Clock::now();
    fleet_->BeginTick();
    uint64_t n = 0;
    for (uint32_t p = 0; p < kShards; ++p) {
      for (const CellUpdate& u : next_[p]) {
        fleet_->ApplyUpdate(p, u.cell, u.value);
      }
      n += next_[p].size();
    }
    const auto t1 = Clock::now();
    const Status status = fleet_->EndTick();
    const auto t2 = Clock::now();
    *updates += n;
    if (tracer != nullptr) {
      tracer->Add("fleet.apply_update", "tick", request, t0, t1);
      tracer->Add("fleet.end_tick", "tick", request, t1, t2);
      apply_ns_per_update.Add(Seconds(t1 - t0) * 1e9 / static_cast<double>(n));
      end_tick_us.Add(Seconds(t2 - t1) * 1e6);
    }
    return status;
  }

  void AfterTick() override {
    for (uint32_t p = 0; p < kShards; ++p) {
      for (const CellUpdate& u : next_[p]) live_[p].WriteCell(u.cell, u.value);
    }
  }

  bool PartitionMatchesLive(uint32_t p, const StateTable& t) override {
    return t.ContentEquals(live_[p]);
  }

  bool MatchesAt(uint64_t tick,
                 const std::vector<StateTable>& tables) override {
    // Replays the trace onto bare tables through the end of `tick`;
    // ascending queries reuse the replay position.
    if (replay_ == nullptr || replay_->tick() > tick + 1) {
      replay_ = std::make_unique<SyntheticTrace>(config_.shard.layout, seed_);
      replay_tables_.clear();
      for (uint32_t p = 0; p < kShards; ++p) {
        replay_tables_.emplace_back(config_.shard.layout);
        replay_tables_.back().Clear();
      }
    }
    std::vector<std::vector<CellUpdate>> updates;
    while (replay_->tick() <= tick) {
      replay_->Next(&updates);
      for (uint32_t p = 0; p < kShards; ++p) {
        for (const CellUpdate& u : updates[p]) {
          replay_tables_[p].WriteCell(u.cell, u.value);
        }
      }
    }
    if (tables.size() != kShards) return false;
    for (uint32_t p = 0; p < kShards; ++p) {
      if (!tables[p].ContentEquals(replay_tables_[p])) return false;
    }
    return true;
  }

  double LiveStateBytes() const override {
    return static_cast<double>(kShards * config_.shard.layout.state_bytes());
  }

 private:
  ShardedEngineConfig config_;
  uint64_t seed_;
  SyntheticTrace trace_;
  std::vector<std::vector<CellUpdate>> next_;
  std::vector<StateTable> live_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<SyntheticTrace> replay_;
  std::vector<StateTable> replay_tables_;
};

class GameWorkload : public Workload {
 public:
  GameWorkload(const WorkloadSpec& spec, uint64_t seed) {
    // Sized so the sequential world step fills about 11 ms of the 33 ms
    // tick on a 4-core VM: open-loop headroom, so a stretch of host CPU
    // contention delays ticks instead of building a backlog that lasts.
    config_.zone_world.num_units = 40000;
    config_.zone_world.map_size = 2048;
    config_.zone_world.spawn_radius = 700;
    config_.zone_world.seed = seed;
    config_.engine = FleetConfig(spec);
    config_.parallel_step = false;  // one generator thread
    config_.zone_activity =
        tickpoint::game::GameShardAdapter::ZipfZoneActivity(kShards, 1.0);
  }

  Status Create(const std::string& root) override {
    config_.engine.shard.dir = root;
    auto adapter_or = tickpoint::game::GameShardAdapter::Open(config_);
    if (!adapter_or.ok()) return adapter_or.status();
    adapter_ = std::move(adapter_or.value());
    return Status::OK();
  }
  Fleet* fleet() override { return adapter_->fleet(); }

  Status Submit(Tracer* tracer, uint64_t request, uint64_t* updates) override {
    const bool bulk_load = adapter_->engine_ticks() == 0;
    const uint64_t before = adapter_->game_updates();
    const auto t0 = Clock::now();
    const Status status = adapter_->Tick();
    const auto t1 = Clock::now();
    const uint64_t delta = adapter_->game_updates() - before;
    *updates += delta;
    if (tracer != nullptr && !bulk_load) {
      tracer->Add("game.tick", "tick", request, t0, t1);
      game_tick_ms.Add(Millis(t1 - t0));
      game_updates_per_tick.Add(static_cast<double>(delta));
    }
    return status;
  }

  void OnCutTick(uint64_t tick) override {
    cut_tick_ = tick;
    cut_digests_.clear();
    for (uint32_t z = 0; z < kShards; ++z) {
      cut_digests_.push_back(adapter_->ZoneDigest(z));
    }
  }

  bool PartitionMatchesLive(uint32_t p, const StateTable& t) override {
    return tickpoint::game::TableStateDigest(
               t, config_.zone_world.num_units) == adapter_->ZoneDigest(p);
  }

  bool MatchesAt(uint64_t tick,
                 const std::vector<StateTable>& tables) override {
    if (tick != cut_tick_ || cut_digests_.size() != kShards ||
        tables.size() != kShards) {
      return false;
    }
    for (uint32_t z = 0; z < kShards; ++z) {
      if (tickpoint::game::TableStateDigest(
              tables[z], config_.zone_world.num_units) != cut_digests_[z]) {
        return false;
      }
    }
    return true;
  }

  double LiveStateBytes() const override {
    return static_cast<double>(
        kShards * tickpoint::game::GameShardAdapter::ZoneLayout(
                      config_.zone_world)
                      .state_bytes());
  }

 private:
  tickpoint::game::GameShardAdapterConfig config_;
  std::unique_ptr<tickpoint::game::GameShardAdapter> adapter_;
  /// Zone digests right after the last cut tick (the cut-restore oracle;
  /// only the last cut is ever restored).
  uint64_t cut_tick_ = 0;
  std::vector<uint64_t> cut_digests_;
};

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec,
                                       uint64_t seed) {
  if (spec.game) return std::make_unique<GameWorkload>(spec, seed);
  return std::make_unique<SyntheticWorkload>(spec, seed);
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class BenchRun {
 public:
  BenchRun(const WorkloadSpec& spec, const Options& options)
      : spec_(spec), options_(options), tracer_(options.trace) {}

  /// Runs set-up, the timed loop and the ending; prints the report and the
  /// result line.
  void Execute() {
    origin_ = Clock::now();
    if (Setup() && TimedLoop()) Ending();
    Report();
  }

 private:
  // ---- ticks ----

  /// Runs one fleet tick: an optional cut request, the workload's submit,
  /// WaitForIdle, and the cut commit when this is the cut tick. Returns
  /// false (and records the failure) when an operation failed.
  bool RunTick(bool request_cut, bool traced, bool* cut_tick) {
    Fleet* fleet = workload_->fleet();
    const uint64_t tick = fleet->current_tick();
    Tracer* tracer = traced ? &tracer_ : nullptr;
    *cut_tick = false;
    if (request_cut) {
      const auto t0 = Clock::now();
      auto cut_or = fleet->RequestConsistentCut();
      const auto t1 = Clock::now();
      if (!cut_or.ok()) {
        ops_.Fail("RequestConsistentCut: " + cut_or.status().ToString());
        return false;
      }
      pending_cut_ = *cut_or;
      if (traced) {
        tracer_.Add("consistent_cut.request", "tick", tick, t0, t1);
        cut_request_us_.Add(Seconds(t1 - t0) * 1e6);
      }
    }
    uint64_t updates = 0;
    Status status = workload_->Submit(tracer, tick, &updates);
    const auto t2 = Clock::now();
    if (status.ok()) status = fleet->WaitForIdle();
    const auto t3 = Clock::now();
    if (!status.ok()) {
      ops_.Fail("tick " + std::to_string(tick) + ": " + status.ToString());
      return false;
    }
    ops_.Pass();
    if (in_timed_loop_) timed_updates_ += updates;
    if (traced) tracer_.Add("shard_runner.drain", "tick", tick, t2, t3);
    if (pending_cut_.has_value() && *pending_cut_ == tick) {
      *cut_tick = true;
      const auto t4 = Clock::now();
      status = fleet->CommitConsistentCut();
      const auto t5 = Clock::now();
      pending_cut_.reset();
      if (!status.ok()) {
        ops_.Fail("CommitConsistentCut: " + status.ToString());
        return false;
      }
      ops_.Pass();
      last_cut_tick_ = tick;
      if (traced) {
        tracer_.Add("consistent_cut.commit", "tick", tick, t4, t5);
        cut_commit_ms_.Add(Millis(t5 - t4));
        cut_shard_stall_ms_.Add(
            fleet->engine().last_cut_report().max_shard_stall_seconds * 1e3);
      }
    } else if (traced) {
      drain_us_.Add(Seconds(t3 - t2) * 1e6);
    }
    return true;
  }

  /// An untimed closed-loop tick (warm-up and ending).
  bool UntimedTick(bool request_cut) {
    workload_->Prepare();
    bool cut_tick = false;
    const bool ok = RunTick(request_cut, false, &cut_tick);
    if (ok) workload_->AfterTick();
    if (ok && cut_tick) workload_->OnCutTick(last_cut_tick_);
    return ok;
  }

  // ---- set-up ----

  bool Setup() {
    std::error_code ec;
    std::filesystem::create_directories(options_.root, ec);
    fs_type_ = FilesystemType(options_.root, &fs_is_tmpfs_);
    for (int i = 0; i < options_.setups; ++i) {
      const std::string dir = options_.root + "/fleet-" + std::to_string(i);
      std::filesystem::remove_all(dir, ec);
      std::filesystem::create_directories(dir, ec);
      workload_ = MakeWorkload(spec_, options_.seed);
      double harness_seconds = 0.0;
      const auto t0 = Clock::now();
      Status status = workload_->Create(dir);
      if (!status.ok()) {
        ops_.Fail("Fleet::Create: " + status.ToString());
        return false;
      }
      for (uint64_t t = 0; t < kWarmupTicks; ++t) {
        const auto g0 = Clock::now();
        workload_->Prepare();
        harness_seconds += Seconds(Clock::now() - g0);
        bool cut_tick = false;
        if (!RunTick(false, false, &cut_tick)) return false;
        const auto a0 = Clock::now();
        workload_->AfterTick();
        harness_seconds += Seconds(Clock::now() - a0);
      }
      setup_s_.Add(Seconds(Clock::now() - t0) - harness_seconds);
      if (i + 1 < options_.setups) {
        status = workload_->fleet()->Shutdown();
        workload_.reset();
        std::filesystem::remove_all(dir, ec);
        if (!status.ok()) {
          ops_.Fail("Shutdown: " + status.ToString());
          return false;
        }
      } else {
        fleet_root_ = dir;
      }
    }
    return true;
  }

  // ---- the timed loop ----

  /// Adds partition p's copy-on-update copies since its baseline.
  void HarvestCouCopies(uint32_t p) {
    const uint64_t now =
        workload_->fleet()->engine().shard(p).metrics().cou_copies;
    cou_copies_ += now - cou_baseline_[p];
    cou_baseline_[p] = now;
  }

  /// Keeps partition p's checkpoint records that started inside the timed
  /// loop (the engine is replaced on failover, so records are kept here).
  void HarvestRecords(uint32_t p) {
    for (const auto& r :
         workload_->fleet()->engine().shard(p).metrics().checkpoints) {
      if (r.start_tick >= first_timed_tick_ && r.start_tick <= last_timed_tick_) {
        records_.push_back(r);
      }
    }
  }

  bool TimedLoop() {
    Fleet* fleet = workload_->fleet();
    first_timed_tick_ = fleet->current_tick();
    last_timed_tick_ = UINT64_MAX;
    for (uint32_t p = 0; p < kShards; ++p) {
      cou_baseline_[p] = fleet->engine().shard(p).metrics().cou_copies;
    }
    in_timed_loop_ = true;
    const ProcIo io0 = ProcIo::Read();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kTickHz));
    const uint64_t open_ticks =
        options_.ticks > 0
            ? options_.ticks
            : static_cast<uint64_t>(std::llround(options_.seconds * kTickHz));
    const auto loop_start = Clock::now();
    auto anchor = loop_start;
    auto loop_end = loop_start;
    bool failover_due = false;
    uint32_t next_failover = 0;
    bool ok = true;
    for (uint64_t i = 0;; ++i) {
      if (spec_.open_loop || options_.ticks > 0) {
        if (i >= open_ticks) break;
      } else if (Seconds(Clock::now() - loop_start) >= options_.seconds) {
        break;
      }
      workload_->Prepare();
      const auto due = spec_.open_loop ? anchor + static_cast<Clock::rep>(i) * period
                                       : Clock::now();
      bool slept = false;
      if (spec_.open_loop && Clock::now() < due) {
        std::this_thread::sleep_until(due);
        slept = true;
      }
      const auto start = Clock::now();
      const uint64_t tick = fleet->current_tick();
      const bool request = i % kCutEvery == 0 && !pending_cut_.has_value();
      const bool cut_due = pending_cut_.has_value() && *pending_cut_ == tick;
      // Cut ticks are always traced; of the others a seeded half, so the
      // traced and untraced sets sample every stagger phase alike.
      const bool coin = (Mix(options_.seed ^ (i << 8)) & 1) != 0;
      const bool traced = options_.trace && (request || cut_due || coin);
      const size_t spans_before = tracer_.size();
      bool cut_tick = false;
      if (!RunTick(request, traced, &cut_tick)) {
        ok = false;
        break;
      }
      const auto end = Clock::now();
      loop_end = end;
      ++timed_ticks_;
      const double late_ms = Millis(start - due);
      if (slept) wake_late_ms_.Add(late_ms);
      if (late_ms > kLateMs) ++late_ticks_;
      (cut_tick ? cut_tick_ms_ : tick_ms_).Add(Millis(end - due));
      if (options_.trace && !cut_tick && !request) {
        (traced ? traced_run_ms_ : untraced_run_ms_).Add(Millis(end - start));
      }
      if (traced) AccountSpans(spans_before, tick, start, end);
      workload_->AfterTick();
      if (cut_tick) workload_->OnCutTick(tick);
      if (spec_.failover_every > 0 && (i + 1) % spec_.failover_every == 0) {
        failover_due = true;
      }
      if (failover_due && !pending_cut_.has_value()) {
        failover_due = false;
        HarvestCouCopies(next_failover);
        if (!Failover(next_failover)) {
          ok = false;
          break;
        }
        cou_baseline_[next_failover] = 0;  // a fresh engine
        next_failover = (next_failover + 1) % kShards;
        // The fleet is frozen while a shard is down; the schedule resumes
        // from now rather than charging the outage to the next ticks.
        anchor = Clock::now() - static_cast<Clock::rep>(i + 1) * period;
      }
    }
    in_timed_loop_ = false;
    const ProcIo io1 = ProcIo::Read();
    // Read before the ending, whose recoveries and oracle replay allocate
    // tables of their own.
    rss_peak_mb_ = PeakRssMb();
    timed_seconds_ = Seconds(loop_end - loop_start);
    last_timed_tick_ = fleet->current_tick() - 1;
    wchar_ = static_cast<double>(io1.wchar - io0.wchar);
    syscw_ = static_cast<double>(io1.syscw - io0.syscw);
    storage_write_bytes_ = static_cast<double>(io1.write_bytes - io0.write_bytes);
    if (!ok) return false;
    for (uint32_t p = 0; p < kShards; ++p) HarvestCouCopies(p);
    return true;
  }

  /// Span accounting of one traced tick: the child spans of the tick must
  /// cover its start-to-end time (its latency minus the generator's
  /// lateness) to within the stated tolerance.
  void AccountSpans(size_t first_span, uint64_t tick, Clock::time_point start,
                    Clock::time_point end) {
    const size_t children_end = tracer_.size();
    tracer_.Add("tick", "", tick, start, end);
    const double total_us = Seconds(end - start) * 1e6;
    const double covered_us = tracer_.CoveredUs(first_span, children_end);
    const double gap_us = total_us - covered_us;
    unaccounted_us_.Add(gap_us);
    const double tolerance =
        std::max(kSpanToleranceUs, kSpanToleranceShare * total_us);
    ++accounted_ticks_;
    if (std::abs(gap_us) <= tolerance) ++accounted_within_;
  }

  // ---- failover ----

  bool Failover(uint32_t p) {
    Fleet* fleet = workload_->fleet();
    HarvestRecords(p);  // the engine is about to be replaced
    const uint64_t request = fleet->current_tick();
    const auto t0 = Clock::now();
    Status status = fleet->SimulateShardCrash(p);
    const auto t1 = Clock::now();
    if (!status.ok()) {
      ops_.Fail("SimulateShardCrash: " + status.ToString());
      return false;
    }
    status = fleet->FailoverShard(p);
    const auto t2 = Clock::now();
    if (!status.ok()) {
      ops_.Fail("FailoverShard: " + status.ToString());
      return false;
    }
    const tickpoint::FailoverReport& report = fleet->last_failover_report();
    failover_ms_.Add(Millis(t2 - t1));
    shard_crash_ms_.Add(Millis(t1 - t0));
    rebuild_ms_.Add(report.rebuild_seconds * 1e3);
    resume_ms_.Add(report.resume_seconds * 1e3);
    if (report.used_peer_memory) ++peer_memory_failovers_;
    tracer_.Add("sharded_engine.shard_crash", "failover", request, t0, t1);
    tracer_.Add("sharded_engine.failover_shard", "failover", request, t1, t2);
    status = fleet->WaitForIdle();
    if (!status.ok() ||
        !workload_->PartitionMatchesLive(
            p, fleet->engine().shard(p).state())) {
      ops_.Fail("failover of partition " + std::to_string(p) +
                (status.ok() ? ": state differs from the oracle"
                             : ": " + status.ToString()));
      return false;
    }
    ops_.Pass();
    return true;
  }

  // ---- the ending ----

  void Ending() {
    Fleet* fleet = workload_->fleet();
    // Timed operations below should not compete with the kernel writing
    // back the timed loop's dirty pages.
    FsyncTree(fleet_root_);
    // A time-bounded loop can stop with a cut armed; failover refuses to
    // run while one is in flight, so commit it first.
    while (pending_cut_.has_value()) {
      if (!UntimedTick(false)) return;
    }
    if (spec_.failover_every == 0) {
      const auto start = Clock::now();
      for (int k = 0; RepeatAgain(k, start); ++k) {
        if (!Failover(static_cast<uint32_t>(k % kShards))) return;
        for (uint64_t t = 0; t < kTicksBetweenEndingFailovers; ++t) {
          if (!UntimedTick(false)) return;
        }
      }
    }
    // A final cut after the last failover: the restore target.
    if (!UntimedTick(!pending_cut_.has_value())) return;
    while (pending_cut_.has_value()) {
      if (!UntimedTick(false)) return;
    }
    for (uint64_t t = 0; t < kTicksAfterFinalCut; ++t) {
      if (!UntimedTick(false)) return;
    }
    const uint64_t crash_tick = fleet->current_tick();
    Status status = fleet->SimulateCrash();
    if (!status.ok()) {
      ops_.Fail("SimulateCrash: " + status.ToString());
      return;
    }
    for (uint32_t p = 0; p < kShards; ++p) HarvestRecords(p);
    FsyncTree(fleet_root_);
    stagger_deferrals_ =
        static_cast<double>(fleet->engine().scheduler().deferrals());
    space_amp_ = static_cast<double>(DiskBytes(fleet_root_)) /
                 workload_->LiveStateBytes();

    const auto start = Clock::now();
    for (int r = 0; RepeatAgain(r, start); ++r) {
      const auto t0 = Clock::now();
      auto recovered = Fleet::Recover(fleet_root_);
      const auto t1 = Clock::now();
      tracer_.Add("fleet.recover", "", ops_.attempted(), t0, t1);
      if (!recovered.ok()) {
        ops_.Fail("Fleet::Recover: " + recovered.status().ToString());
        continue;
      }
      const auto& fleet_result = recovered->result().fleet;
      recover_ms_.Add(Millis(t1 - t0));
      recovery_restore_ms_.Add(fleet_result.restore_seconds * 1e3);
      recovery_replay_ms_.Add(fleet_result.replay_seconds * 1e3);
      double replayed = 0.0;
      for (const auto& shard : fleet_result.shards) {
        replayed += static_cast<double>(shard.ticks_replayed);
      }
      ticks_replayed_.Add(replayed);
      if (fleet_result.min_recovered_ticks != crash_tick ||
          fleet_result.max_recovered_ticks != crash_tick ||
          !workload_->MatchesLive(recovered->tables())) {
        ops_.Fail("Fleet::Recover landed off the oracle (recovered ticks " +
                  std::to_string(fleet_result.min_recovered_ticks) + ", want " +
                  std::to_string(crash_tick) + ")");
        continue;
      }
      ops_.Pass();
    }

    if (spec_.retention) {
      RestoreToTicks();
    } else {
      RestoreToCut();
    }
    if (options_.trace) LayerReads();
  }

  void RestoreToTicks() {
    auto window = Fleet::RestorableWindow(fleet_root_);
    if (!window.ok() || !window->any) {
      ops_.Fail("RestorableWindow: " + (window.ok()
                                            ? std::string("no window")
                                            : window.status().ToString()));
      return;
    }
    window_ticks_ = static_cast<double>(window->high_tick - window->low_tick);
    for (int r = 0; r < kPitTargets; ++r) {
      const uint64_t target =
          window->low_tick + (window->high_tick - window->low_tick) *
                                 static_cast<uint64_t>(r) / (kPitTargets - 1);
      const auto t0 = Clock::now();
      auto restored = Fleet::RecoverToTick(fleet_root_, target);
      const auto t1 = Clock::now();
      tracer_.Add("fleet.recover_to_tick", "", ops_.attempted(), t0, t1);
      if (!restored.ok()) {
        ops_.Fail("RecoverToTick: " + restored.status().ToString());
        continue;
      }
      restore_ms_.Add(Millis(t1 - t0));
      if (!restored->at_requested_tick() ||
          !workload_->MatchesAt(target, restored->tables())) {
        ops_.Fail("RecoverToTick(" + std::to_string(target) +
                  ") landed off the oracle");
        continue;
      }
      ops_.Pass();
    }
  }

  void RestoreToCut() {
    const auto start = Clock::now();
    for (int r = 0; RepeatAgain(r, start); ++r) {
      const auto t0 = Clock::now();
      auto restored = Fleet::RecoverToCut(fleet_root_);
      const auto t1 = Clock::now();
      tracer_.Add("fleet.recover_to_cut", "", ops_.attempted(), t0, t1);
      if (!restored.ok()) {
        ops_.Fail("RecoverToCut: " + restored.status().ToString());
        continue;
      }
      restore_ms_.Add(Millis(t1 - t0));
      if (!restored->at_cut() || restored->result().cut_tick != last_cut_tick_ ||
          !workload_->MatchesAt(last_cut_tick_, restored->tables())) {
        ops_.Fail("RecoverToCut landed off the oracle (cut " +
                  std::to_string(last_cut_tick_) + ")");
        continue;
      }
      ops_.Pass();
    }
  }

  /// Traced run only: times the store, log and history read functions on
  /// the crashed shard directories, and reads the history indexes.
  void LayerReads() {
    Fleet* fleet = workload_->fleet();
    const tickpoint::EngineConfig& shard_config =
        fleet->engine().config().shard;
    const StateLayout& layout = shard_config.layout;
    const bool backup = tickpoint::GetTraits(shard_config.algorithm).disk ==
                        tickpoint::DiskOrganization::kDoubleBackup;
    StateTable table(layout);
    for (int r = 0; r < kLayerReadRepeats; ++r) {
      const uint32_t p = static_cast<uint32_t>(r) % kShards;
      const std::string dir = ShardedEngine::ShardDir(
          fleet_root_, fleet->engine().SlotOfPartition(p));
      auto t0 = Clock::now();
      Status status = ReadNewestImage(dir, layout, backup, &table);
      auto t1 = Clock::now();
      tracer_.Add("checkpoint_store.read_image", "layer_read", r, t0, t1);
      if (!status.ok()) {
        ops_.Fail("checkpoint store read: " + status.ToString());
        return;
      }
      read_image_ms_.Add(Millis(t1 - t0));

      table.Clear();
      t0 = Clock::now();
      auto replay = tickpoint::LogicalLog::Replay(
          tickpoint::Engine::LogicalLogPath(dir), 0, UINT64_MAX, &table);
      t1 = Clock::now();
      tracer_.Add("logical_log.replay", "layer_read", r, t0, t1);
      if (!replay.ok()) {
        ops_.Fail("LogicalLog::Replay: " + replay.status().ToString());
        return;
      }
      log_replay_ms_.Add(Millis(t1 - t0));

      auto index = tickpoint::ShardHistory::ReadIndex(dir);
      if (index.ok() && !index->generations.empty()) {
        t0 = Clock::now();
        auto gen = tickpoint::ShardHistory::ReadGenerationImage(
            dir, index->generations.back().seq, &table);
        t1 = Clock::now();
        tracer_.Add("history.read_generation", "layer_read", r, t0, t1);
        if (!gen.ok()) {
          ops_.Fail("ReadGenerationImage: " + gen.status().ToString());
          return;
        }
        read_generation_ms_.Add(Millis(t1 - t0));
      }
    }
    for (uint32_t p = 0; p < kShards; ++p) {
      auto index = tickpoint::ShardHistory::ReadIndex(ShardedEngine::ShardDir(
          fleet_root_, fleet->engine().SlotOfPartition(p)));
      if (!index.ok()) continue;  // NotFound: retention off
      history_generations_ += static_cast<double>(index->generations.size());
      history_bytes_ += static_cast<double>(index->TotalBytes());
      compactions_ += static_cast<double>(index->compactions_run);
    }
  }

  /// The newest durable image of one shard directory, opened read-only.
  static Status ReadNewestImage(const std::string& dir,
                                const StateLayout& layout, bool backup,
                                StateTable* out) {
    if (!backup) {
      auto store = tickpoint::LogStore::Open(dir, layout, false);
      if (!store.ok()) return store.status();
      auto image = (*store)->Restore(out);
      return image.ok() ? Status::OK() : image.status();
    }
    auto store = tickpoint::BackupStore::Open(dir, layout, false, nullptr,
                                              /*replay_doublewrite=*/false);
    if (!store.ok()) return store.status();
    int best = -1;
    uint64_t best_seq = 0;
    for (int index = 0; index < 2; ++index) {
      auto info = (*store)->Inspect(index);
      if (info.ok() && info->valid && (best < 0 || info->seq > best_seq)) {
        best = index;
        best_seq = info->seq;
      }
    }
    if (best < 0) return Status::NotFound("no valid backup image in " + dir);
    return (*store)->ReadAll(best, out);
  }

  // ---- output ----

  std::vector<Metric> EndToEndMetrics() const {
    const double updates = static_cast<double>(timed_updates_);
    return {
        {"tick_p50_ms", tick_ms_.Median(), "ms", Describe(tick_ms_), true},
        {"tick_p99_ms", tick_ms_.Tail(), "ms", Describe(tick_ms_), true},
        {"cut_tick_p50_ms", cut_tick_ms_.Median(), "ms",
         Describe(cut_tick_ms_), true},
        {"ticks_per_s", timed_seconds_ > 0 ? timed_ticks_ / timed_seconds_ : 0,
         "1/s",
         std::to_string(timed_ticks_) + " ticks in " +
             JsonNumber(timed_seconds_) + " s",
         true},
        {"recover_ms", recover_ms_.Median(), "ms", Describe(recover_ms_)},
        {"pit_restore_ms", restore_ms_.Median(), "ms",
         std::string(spec_.retention ? "RecoverToTick across the window, "
                                     : "RecoverToCut, ") +
             Describe(restore_ms_)},
        {"failover_ms", failover_ms_.Median(), "ms",
         Describe(failover_ms_) + ", " +
             std::to_string(peer_memory_failovers_) + " from peer memory",
         true},
        {"write_amp",
         updates > 0 ? wchar_ / (updates * workload_->fleet()
                                               ->engine()
                                               .config()
                                               .shard.layout.cell_size)
                     : 0,
         "ratio",
         JsonNumber(wchar_) + " B written for " +
             std::to_string(timed_updates_) + " updates"},
        {"space_amp", space_amp_, "ratio", "on-disk bytes / live state bytes"},
        {"rss_peak_mb", rss_peak_mb_, "MB",
         "getrusage ru_maxrss at the end of the timed loop"},
        {"setup_s", setup_s_.Median(), "s", Describe(setup_s_)},
    };
  }

  std::vector<Metric> PerLayerMetrics() const {
    Samples pause_ms, writer_ms, cut_stall_ms;
    double bytes = 0.0, objects = 0.0;
    for (const auto& r : records_) {
      pause_ms.Add(r.sync_seconds * 1e3);
      writer_ms.Add(r.async_seconds * 1e3);
      if (r.cut) cut_stall_ms.Add(r.cut_stall_seconds * 1e3);
      bytes += static_cast<double>(r.bytes_written);
      objects += static_cast<double>(r.objects_written);
    }
    const double checkpoints = static_cast<double>(records_.size());
    const double ticks = std::max<double>(1.0, timed_ticks_);
    const auto per_ckpt = [checkpoints](double v) {
      return checkpoints > 0 ? v / checkpoints : 0.0;
    };
    const double mb = 1024.0 * 1024.0;
    const double overhead_ms =
        traced_run_ms_.Median() - untraced_run_ms_.Median();
    return {
        {"fleet.end_tick_us", workload_->end_tick_us.Median(), "us",
         Describe(workload_->end_tick_us), true},
        {"fleet.apply_update_ns", workload_->apply_ns_per_update.Median(), "ns",
         Describe(workload_->apply_ns_per_update), true},
        {"shard_runner.drain_us", drain_us_.Median(), "us", Describe(drain_us_)},
        {"shard_runner.drain_p99_us", drain_us_.Tail(), "us",
         Describe(drain_us_)},
        {"consistent_cut.request_us", cut_request_us_.Median(), "us",
         Describe(cut_request_us_)},
        {"consistent_cut.commit_ms", cut_commit_ms_.Median(), "ms",
         Describe(cut_commit_ms_)},
        {"consistent_cut.shard_stall_ms", cut_shard_stall_ms_.Median(), "ms",
         Describe(cut_shard_stall_ms_)},
        {"stagger_scheduler.deferrals", stagger_deferrals_, "count", ""},
        {"engine.pause_ms", pause_ms.Median(), "ms", Describe(pause_ms), true},
        {"engine.writer_ms", writer_ms.Median(), "ms", Describe(writer_ms)},
        {"engine.cut_stall_ms", cut_stall_ms.Median(), "ms",
         Describe(cut_stall_ms)},
        {"engine.checkpoints", checkpoints, "count", "started in the timed loop"},
        {"engine.bytes_per_checkpoint", per_ckpt(bytes), "B", ""},
        {"engine.objects_per_checkpoint", per_ckpt(objects), "count", ""},
        {"engine.cou_copies_per_tick", static_cast<double>(cou_copies_) / ticks,
         "1/tick", ""},
        {"io.wchar_mb_per_tick", wchar_ / mb / ticks, "MB/tick",
         "/proc/self/io wchar"},
        {"io.write_calls_per_tick", syscw_ / ticks, "1/tick",
         "/proc/self/io syscw"},
        {"io.storage_write_mb_per_tick", storage_write_bytes_ / mb / ticks,
         "MB/tick", "/proc/self/io write_bytes"},
        {"recovery.restore_ms", recovery_restore_ms_.Median(), "ms",
         Describe(recovery_restore_ms_)},
        {"recovery.replay_ms", recovery_replay_ms_.Median(), "ms",
         Describe(recovery_replay_ms_)},
        {"recovery.ticks_replayed", ticks_replayed_.Median(), "count", ""},
        {"checkpoint_store.read_image_ms", read_image_ms_.Median(), "ms",
         Describe(read_image_ms_)},
        {"logical_log.replay_ms", log_replay_ms_.Median(), "ms",
         Describe(log_replay_ms_)},
        {"history.read_generation_ms", read_generation_ms_.Median(), "ms",
         Describe(read_generation_ms_), true},
        {"history.generations", history_generations_, "count", "all shards"},
        {"history.bytes", history_bytes_, "B", "all shards"},
        {"history.window_ticks", window_ticks_, "count",
         "RestorableWindow width"},
        {"compactor.compactions", compactions_, "count", "all shards"},
        {"replica_buffer.rebuild_ms", rebuild_ms_.Median(), "ms",
         Describe(rebuild_ms_)},
        {"replica_buffer.peer_memory_failovers",
         static_cast<double>(peer_memory_failovers_), "count", ""},
        {"sharded_engine.resume_ms", resume_ms_.Median(), "ms",
         Describe(resume_ms_)},
        {"sharded_engine.shard_crash_ms", shard_crash_ms_.Median(), "ms",
         Describe(shard_crash_ms_)},
        {"game.tick_ms", workload_->game_tick_ms.Median(), "ms",
         Describe(workload_->game_tick_ms), true},
        {"game.updates_per_tick", workload_->game_updates_per_tick.Median(),
         "1/tick", ""},
        {"generator.wake_late_p50_ms", wake_late_ms_.Median(), "ms",
         Describe(wake_late_ms_), true},
        {"generator.wake_late_p99_ms", wake_late_ms_.Tail(), "ms",
         Describe(wake_late_ms_), true},
        {"generator.late_ticks", static_cast<double>(late_ticks_), "count",
         "started > 1 ms after their due time"},
        {"trace.overhead_ms", overhead_ms, "ms",
         "tick p50 traced minus untraced (start to end)"},
        {"trace.unaccounted_us", unaccounted_us_.Median(), "us",
         Describe(unaccounted_us_)},
    };
  }

  void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const Metric& m : metrics) {
      std::printf("  %-38s%c %14.4f %-7s %s\n", m.name.c_str(),
                  m.report_only ? '*' : ' ', m.value, m.unit.c_str(),
                  m.detail.c_str());
    }
  }

  void Report() {
    std::printf("fleetbench header: {\"workload\": %s, \"seed\": %" PRIu64
                ", \"seconds\": %s, \"ticks\": %" PRIu64
                ", \"trace\": %d, \"git_sha\": %s, \"src_digest\": %s, "
                "\"build_type\": %s, \"io_backend\": %s, \"nproc\": %u, "
                "\"fleet_root_fs\": %s, \"fsync\": %s, \"loop\": %s}\n",
                JsonString(spec_.name).c_str(), options_.seed,
                JsonNumber(options_.seconds).c_str(), options_.ticks,
                options_.trace ? 1 : 0, JsonString(options_.git_sha).c_str(),
                JsonString(options_.src_digest).c_str(),
                JsonString(FLEETBENCH_BUILD_TYPE).c_str(),
                JsonString(IoBackendName()).c_str(),
                std::thread::hardware_concurrency(),
                JsonString(fs_type_).c_str(),
                JsonString("on; logical log synced every tick").c_str(),
                JsonString(spec_.open_loop ? "open, 30 Hz" : "closed, 1 caller")
                    .c_str());
    if (fs_is_tmpfs_) {
      std::printf("warning: the fleet root is on %s, so fsync costs are not "
                  "disk costs\n",
                  fs_type_.c_str());
    }
    std::printf("generator: wake-up lateness %s ms; %" PRIu64
                " of %" PRIu64 " ticks started > %.0f ms late\n",
                Describe(wake_late_ms_).c_str(), late_ticks_, timed_ticks_,
                kLateMs);
    const std::vector<Metric> e2e = EndToEndMetrics();
    const std::vector<Metric> layers = PerLayerMetrics();
    PrintMetrics("end-to-end:", e2e);
    if (options_.trace) PrintMetrics("per-layer (traced run):", layers);
    std::printf("  * report only, not in the result line: the starred "
                "latencies follow the host's disk and CPU load from run to "
                "run; the starred layer metrics are 0 by construction on "
                "some workloads\n");
    if (options_.trace) {
      std::printf("span accounting: %" PRIu64 " of %" PRIu64
                  " traced ticks covered within max(%.0f us, %.0f%%) "
                  "(median gap %.2f us)\n",
                  accounted_within_, accounted_ticks_, kSpanToleranceUs,
                  kSpanToleranceShare * 100, unaccounted_us_.Median());
      std::printf("tracing overhead: %.4f ms on the tick p50 (traced %s; "
                  "untraced %s)\n",
                  traced_run_ms_.Median() - untraced_run_ms_.Median(),
                  Describe(traced_run_ms_).c_str(),
                  Describe(untraced_run_ms_).c_str());
      if (!options_.spans_path.empty() &&
          !tracer_.WriteTsv(options_.spans_path, origin_)) {
        std::fprintf(stderr, "warning: cannot write spans to %s\n",
                     options_.spans_path.c_str());
      }
    }
    std::printf("operations: %" PRIu64 " attempted, %" PRIu64 " failed\n",
                ops_.attempted(), ops_.failed());
    for (const std::string& m : ops_.messages()) {
      std::printf("  failure: %s\n", m.c_str());
    }
    const bool correct = ops_.failed() == 0 && ops_.attempted() > 0;
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(ops_.attempted());
    line += ", \"failed\": " + std::to_string(ops_.failed());
    line += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : options_.trace ? layers : e2e) {
      if (m.report_only) continue;
      if (!first) line += ", ";
      first = false;
      line += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

  static const char* IoBackendName() {
#ifdef TICKPOINT_HAVE_LIBURING
    return "async (io_uring)";
#else
    return "async (writer thread)";
#endif
  }

  const WorkloadSpec& spec_;
  const Options& options_;
  Tracer tracer_;
  OpLedger ops_;
  Clock::time_point origin_;
  std::unique_ptr<Workload> workload_;
  std::string fleet_root_;
  std::string fs_type_ = "unknown";
  bool fs_is_tmpfs_ = false;

  std::optional<uint64_t> pending_cut_;
  uint64_t last_cut_tick_ = 0;
  bool in_timed_loop_ = false;
  uint64_t first_timed_tick_ = 0;
  uint64_t last_timed_tick_ = UINT64_MAX;
  uint64_t timed_ticks_ = 0;
  uint64_t timed_updates_ = 0;
  double timed_seconds_ = 0.0;

  // End-to-end samples.
  Samples setup_s_, tick_ms_, cut_tick_ms_, recover_ms_, restore_ms_,
      failover_ms_;
  double wchar_ = 0.0, syscw_ = 0.0, storage_write_bytes_ = 0.0;
  double space_amp_ = 0.0;
  double rss_peak_mb_ = 0.0;

  // Generator honesty.
  Samples wake_late_ms_;
  uint64_t late_ticks_ = 0;

  // Per-layer samples and counters.
  Samples drain_us_, cut_request_us_, cut_commit_ms_, cut_shard_stall_ms_;
  Samples shard_crash_ms_, rebuild_ms_, resume_ms_;
  uint64_t peer_memory_failovers_ = 0;
  Samples recovery_restore_ms_, recovery_replay_ms_, ticks_replayed_;
  Samples read_image_ms_, log_replay_ms_, read_generation_ms_;
  double history_generations_ = 0.0, history_bytes_ = 0.0, compactions_ = 0.0;
  double window_ticks_ = 0.0;
  double stagger_deferrals_ = 0.0;
  std::vector<tickpoint::EngineCheckpointRecord> records_;
  uint64_t cou_baseline_[kShards] = {0, 0};
  uint64_t cou_copies_ = 0;

  // Tracing self-checks.
  Samples traced_run_ms_, untraced_run_ms_, unaccounted_us_;
  uint64_t accounted_ticks_ = 0;
  uint64_t accounted_within_ = 0;
};

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--ticks") {
      options->ticks = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--setups") {
      options->setups = std::max(1, std::atoi(value.c_str()));
    } else if (key == "--root") {
      options->root = value;
    } else if (key == "--spans") {
      options->spans_path = value;
    } else if (key == "--git-sha") {
      options->git_sha = value;
    } else if (key == "--src-digest") {
      options->src_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  Options options;
  if (!ParseArgs(argc, argv, &options) || options.root.empty()) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload <name> --seed N --seconds S "
                 "--trace 0|1 --root DIR [--ticks N] [--setups N] "
                 "[--spans FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (options.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  if (std::filesystem::exists(options.root)) {
    std::fprintf(stderr, "--root %s already exists; pass a fresh path\n",
                 options.root.c_str());
    return 2;
  }
  ScopedRemoveAll remove_root(options.root);
  BenchRun run(*spec, options);
  run.Execute();
  return 0;
}
