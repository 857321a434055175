// Micro-benchmarks (google-benchmark) of the inner-loop operations whose
// costs the paper's model parameterizes: dirty-bit tests, lock round trips,
// object copies, Zipf draws, update handling in the simulator and the real
// engine, logical-log appends, the checksum and log-store restore reads
// that set recovery time, and one double-backup checkpoint write.
//
// Alongside the console report, every run lands as one row in
// BENCH_micro_ops.json (override with --json-out=PATH) in the same flat
// {"bench", "rows"} shape the other harnesses emit, so CI diffs all
// benchmark numbers through one code path.
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "bench/bench_util.h"
#include "core/sim_executor.h"
#include "engine/checkpoint_session.h"
#include "engine/checkpoint_store.h"
#include "engine/dirty_map.h"
#include "engine/logical_log.h"
#include "engine/state_table.h"
#include "util/bitvec.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/zipf.h"

namespace tickpoint {
namespace {

void BM_BitVectorTestSet(benchmark::State& state) {
  BitVector bits(1 << 16);
  uint64_t i = 0;
  for (auto _ : state) {
    const uint64_t index = (i++ * 7919) & 0xFFFF;
    if (!bits.Get(index)) bits.Set(index);
    benchmark::DoNotOptimize(bits);
  }
}
BENCHMARK(BM_BitVectorTestSet);

void BM_EpochVectorSetClear(benchmark::State& state) {
  EpochVector epochs(1 << 16);
  uint64_t i = 0;
  for (auto _ : state) {
    epochs.Set((i++ * 7919) & 0xFFFF);
    if ((i & 0xFFF) == 0) epochs.ClearAll();
    benchmark::DoNotOptimize(epochs);
  }
}
BENCHMARK(BM_EpochVectorSetClear);

void BM_AtomicBitMapTestAndSet(benchmark::State& state) {
  AtomicBitMap bits(1 << 16);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.TestAndSet((i++ * 7919) & 0xFFFF));
  }
}
BENCHMARK(BM_AtomicBitMapTestAndSet);

void BM_SpinlockRoundTrip(benchmark::State& state) {
  ObjectLockTable locks(4096);
  uint64_t i = 0;
  for (auto _ : state) {
    const ObjectId o = (i++ * 31) & 4095;
    locks.Lock(o);
    locks.Unlock(o);
  }
}
BENCHMARK(BM_SpinlockRoundTrip);

void BM_ZipfDraw(benchmark::State& state) {
  ZipfGenerator zipf(1000000, 0.8);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(&rng));
  }
}
BENCHMARK(BM_ZipfDraw);

void BM_Crc32PerObject(benchmark::State& state) {
  std::vector<uint8_t> object(512, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(object.data(), object.size()));
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Crc32PerObject);

// Checksum throughput over one 8 MB image: a log-store restore checksums
// every byte it reads, so this bounds its speed.
void BM_Crc32Image8MB(benchmark::State& state) {
  std::vector<uint8_t> image(8 << 20);
  for (size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<uint8_t>(i * 131 + (i >> 12));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(image.data(), image.size()));
  }
  state.SetBytesProcessed(state.iterations() * image.size());
}
BENCHMARK(BM_Crc32Image8MB);

// LogStore::Restore of one generation from the page cache: an 8 MB full
// flush followed by 8 incremental segments of 1% of the objects each.
void BM_LogStoreRestore8MB(benchmark::State& state) {
  const StateLayout layout = StateLayout::Small(204800, 10);  // 8 MB
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tp_bench_logstore").string();
  std::filesystem::remove_all(dir);
  auto store_or = LogStore::Open(dir, layout, /*fsync_enabled=*/false);
  TP_CHECK_OK(store_or.status());
  LogStore& store = *store_or.value();
  StateTable table(layout);
  for (CellId c = 0; c < layout.num_cells(); ++c) {
    table.WriteCell(c, static_cast<int32_t>(c));
  }
  const uint64_t n = layout.num_objects();
  TP_CHECK_OK(store.BeginGeneration(0));
  TP_CHECK_OK(store.BeginSegment(0, 1, /*full_flush=*/true, n));
  TP_CHECK_OK(store.AppendRun(0, table.data(), n));
  TP_CHECK_OK(store.CommitSegment());
  Rng rng(42);
  const uint64_t per_segment = n / 100;
  for (uint64_t seg = 1; seg <= 8; ++seg) {
    TP_CHECK_OK(store.BeginSegment(seg, seg + 1, false, per_segment));
    for (uint64_t i = 0; i < per_segment; ++i) {
      const ObjectId id = rng.Uniform(n);
      TP_CHECK_OK(store.AppendObject(id, table.ObjectData(id)));
    }
    TP_CHECK_OK(store.CommitSegment());
  }
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bytes += entry.file_size();
  }
  StateTable restored(layout);
  for (auto _ : state) {
    auto image = store.Restore(&restored);
    TP_CHECK_OK(image.status());
    benchmark::DoNotOptimize(restored.mutable_data());
    benchmark::ClobberMemory();
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_LogStoreRestore8MB);

// One double-backup checkpoint of an 8 MB image through the IO
// backend, the way the engine writes it: header invalidate, the dirty
// objects streamed through a CheckpointWriteSession's buffer ring into
// in-place runs, then the data and header commit. Arg = percent of objects
// dirty (100 = a full image). fsync off: this measures the pipeline and
// the page-cache writes, not the disk.
void BM_BackupCheckpoint8MB(benchmark::State& state) {
  const StateLayout layout = StateLayout::Small(204800, 10);  // 8 MB
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tp_bench_backup").string();
  std::filesystem::remove_all(dir);
  auto backend = IoBackend::Create();
  auto store_or = BackupStore::Open(dir, layout, /*fsync_enabled=*/false,
                                    backend.get());
  TP_CHECK_OK(store_or.status());
  BackupStore& store = *store_or.value();
  StateTable table(layout);
  for (CellId c = 0; c < layout.num_cells(); ++c) {
    table.WriteCell(c, static_cast<int32_t>(c));
  }
  const uint64_t n = layout.num_objects();
  std::vector<bool> dirty(n, state.range(0) >= 100);
  Rng rng(42);
  for (uint64_t i = 0; i < n * state.range(0) / 100; ++i) {
    dirty[rng.Uniform(n)] = true;
  }
  uint64_t dirty_objects = 0;
  uint64_t seq = 0;
  for (auto _ : state) {
    TP_CHECK_OK(store.BeginCheckpoint(0));
    CheckpointWriteSession session(
        layout.object_size, backend.get(),
        [&](ObjectId first, const uint8_t* data, uint64_t count) {
          return store.WriteRange(0, first, data, count);
        });
    for (ObjectId o = 0; o < n; ++o) {
      if (dirty[o]) TP_CHECK_OK(session.Add(o, table.ObjectData(o)));
    }
    TP_CHECK_OK(session.Finish());
    ++seq;
    TP_CHECK_OK(store.FinishCheckpoint(0, seq, seq, 0));
    dirty_objects = session.objects_added();
  }
  std::filesystem::remove_all(dir);
  state.SetBytesProcessed(state.iterations() * dirty_objects *
                          layout.object_size);
}
BENCHMARK(BM_BackupCheckpoint8MB)
    ->Arg(100)
    ->Arg(5)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_StateTableCellWrite(benchmark::State& state) {
  StateTable table(StateLayout::Small(4096, 10));
  uint64_t i = 0;
  const uint64_t cells = table.layout().num_cells();
  for (auto _ : state) {
    table.WriteCell((i * 2654435761ULL) % cells, static_cast<int32_t>(i));
    ++i;
  }
}
BENCHMARK(BM_StateTableCellWrite);

void BM_ObjectCopy512(benchmark::State& state) {
  StateTable table(StateLayout::Small(4096, 10));
  std::vector<uint8_t> side(512);
  uint64_t i = 0;
  for (auto _ : state) {
    table.CopyObjectTo((i++ * 31) % table.num_objects(), side.data());
    benchmark::DoNotOptimize(side.data());
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ObjectCopy512);

// The simulated Handle-Update path for each algorithm family.
void BM_SimHandleUpdate(benchmark::State& state) {
  const auto kind = static_cast<AlgorithmKind>(state.range(0));
  CheckpointSim sim(kind, StateLayout::Small(65536, 10),
                    HardwareParams::Paper());
  // Prime a running checkpoint so the copy-on-update branch is live.
  sim.BeginTick();
  sim.EndTick();
  sim.BeginTick();
  uint64_t i = 0;
  const uint64_t n = sim.layout().num_objects();
  for (auto _ : state) {
    sim.OnObjectUpdate((i++ * 2654435761ULL) % n);
  }
  sim.EndTick();
}
BENCHMARK(BM_SimHandleUpdate)
    ->Arg(static_cast<int>(AlgorithmKind::kNaiveSnapshot))
    ->Arg(static_cast<int>(AlgorithmKind::kDribble))
    ->Arg(static_cast<int>(AlgorithmKind::kAtomicCopyDirty))
    ->Arg(static_cast<int>(AlgorithmKind::kCopyOnUpdate));

void BM_LogicalLogAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tp_bench_logical.log")
          .string();
  auto log_or = LogicalLog::Create(path, /*sync_every=*/64);
  TP_CHECK_OK(log_or.status());
  std::vector<CellUpdate> updates(state.range(0));
  for (size_t i = 0; i < updates.size(); ++i) {
    updates[i] = {static_cast<uint32_t>(i), static_cast<int32_t>(i)};
  }
  uint64_t tick = 0;
  for (auto _ : state) {
    TP_CHECK_OK(log_or.value()->AppendTick(tick++, updates));
  }
  TP_CHECK_OK(log_or.value()->Close());
  std::filesystem::remove(path);
  state.SetBytesProcessed(state.iterations() * updates.size() *
                          sizeof(CellUpdate));
}
BENCHMARK(BM_LogicalLogAppend)->Arg(64)->Arg(1024);

/// A ConsoleReporter that also records every completed run as one
/// JsonEmitter row, so the console output stays identical while
/// BENCH_micro_ops.json matches the other harnesses' format.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::JsonEmitter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      // GetAdjustedRealTime/CPUTime are per-iteration in the run's time
      // unit; every benchmark here uses the default (nanoseconds).
      auto& row = json_->AddRow("micro_ops")
                      .Str("name", run.benchmark_name())
                      .Int("iterations", static_cast<uint64_t>(run.iterations))
                      .Num("real_ns_per_iter", run.GetAdjustedRealTime())
                      .Num("cpu_ns_per_iter", run.GetAdjustedCPUTime());
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        row.Num("bytes_per_second", bytes->second);
      }
    }
  }

 private:
  bench::JsonEmitter* json_;
};

}  // namespace
}  // namespace tickpoint

int main(int argc, char** argv) {
  // Peel off --json-out=PATH before google-benchmark sees the argv (it
  // rejects flags it does not own).
  std::string json_path = "BENCH_micro_ops.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tickpoint::bench::JsonEmitter json("bench_micro_ops");
  tickpoint::JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.WriteFile(json_path);
  return 0;
}
