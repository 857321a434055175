// tickpoint_inspect: operations CLI for checkpoint directories.
//
//   tickpoint_inspect --dir /var/lib/myshard [--rows N] [--cols M]
//   tickpoint_inspect --dir /var/lib/myshard --history \
//       [--max-generations N] [--max-retained-ticks T]
//
// Default mode prints the state of both double-backup images (validity,
// sequence, consistent tick), any checkpoint-log generations with their
// segments, and the logical log's durable tick range -- everything an
// operator needs to answer "what would this shard recover to right now?".
//
// --history prints the point-in-time retention state instead: the
// generation table with per-generation on-disk bytes, the archived
// logical-log segments, the retained (restorable) tick window, and what
// the next compaction pass would drop or rewrite under the given policy.
//
// Inspection is strictly read-only: the stores are opened without write
// access and --history only ever reads the index, so pointing this tool
// at a crashed directory never changes what a later recovery will see.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "engine/checkpoint_store.h"
#include "engine/compactor.h"
#include "engine/engine.h"
#include "engine/history.h"
#include "engine/logical_log.h"
#include "util/flags.h"
#include "util/table_printer.h"

using namespace tickpoint;

namespace {

bool Contains(const std::vector<uint64_t>& ids, uint64_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// The --history mode: generation table, retained window, compaction
/// eligibility. Read-only (ReadIndex + ComputeWindow + a pure plan).
int InspectHistory(const std::string& dir, const Flags& flags) {
  auto index_or = ShardHistory::ReadIndex(dir);
  if (index_or.status().code() == StatusCode::kNotFound) {
    std::printf("no history index under %s (retention off, or no "
                "checkpoint completed yet)\n",
                dir.c_str());
    return 1;
  }
  if (!index_or.ok()) {
    std::printf("history index is unreadable: %s\n"
                "point-in-time recovery would fall back to latest "
                "recovery; a writable reopen resets the history.\n",
                index_or.status().ToString().c_str());
    return 1;
  }
  const HistoryIndex& index = index_or.value();

  RetentionPolicy policy;
  policy.enabled = true;
  policy.max_generations = static_cast<uint64_t>(flags.GetInt64(
      "max-generations", static_cast<int64_t>(policy.max_generations)));
  policy.max_retained_ticks = static_cast<uint64_t>(
      flags.GetInt64("max-retained-ticks", 0));
  const CompactionPlan plan = PlanCompaction(index, policy);

  std::printf("history of %s (%zu generations, %zu segments, %llu bytes, "
              "%llu compactions so far)\n\n",
              dir.c_str(), index.generations.size(), index.segments.size(),
              static_cast<unsigned long long>(index.TotalBytes()),
              static_cast<unsigned long long>(index.compactions_run));

  if (!index.generations.empty()) {
    TablePrinter table({"generation", "consistent through tick", "bytes",
                        "next compaction"});
    for (const auto& gen : index.generations) {
      table.AddRow({std::to_string(gen.seq),
                    std::to_string(gen.consistent_tick),
                    std::to_string(gen.bytes),
                    Contains(plan.drop_generations, gen.seq) ? "DROP"
                                                             : "keep"});
    }
    std::printf("generations\n");
    table.Print();
    std::printf("\n");
  }
  if (!index.segments.empty()) {
    TablePrinter table({"segment", "ticks", "bytes", "next compaction"});
    for (const auto& seg : index.segments) {
      const char* fate = Contains(plan.drop_segments, seg.id) ? "DROP"
                         : Contains(plan.rewrite_segments, seg.id)
                             ? "REWRITE"
                             : "keep";
      table.AddRow({std::to_string(seg.id),
                    "[" + std::to_string(seg.first_tick) + ", " +
                        std::to_string(seg.last_tick) + "]",
                    std::to_string(seg.bytes), fate});
    }
    std::printf("archived logical-log segments\n");
    table.Print();
    std::printf("\n");
  }

  auto window_or = ShardHistory::ComputeWindow(dir, index);
  TP_CHECK_OK(window_or.status());
  if (window_or->any) {
    std::printf("restorable window: every tick in [%llu, %llu] can be "
                "reproduced exactly.\n",
                static_cast<unsigned long long>(window_or->low_tick),
                static_cast<unsigned long long>(window_or->high_tick));
  } else {
    std::printf("restorable window: none (no generation with contiguous "
                "logical coverage).\n");
  }
  if (plan.NoOp()) {
    std::printf("compaction under max-generations=%llu%s: nothing to do.\n",
                static_cast<unsigned long long>(policy.max_generations),
                policy.max_retained_ticks
                    ? (" max-retained-ticks=" +
                       std::to_string(policy.max_retained_ticks))
                          .c_str()
                    : "");
  } else {
    std::printf(
        "compaction under max-generations=%llu would drop %zu "
        "generation(s), drop %zu segment(s), rewrite %zu segment(s); the "
        "window base moves to tick %llu.\n",
        static_cast<unsigned long long>(policy.max_generations),
        plan.drop_generations.size(), plan.drop_segments.size(),
        plan.rewrite_segments.size(),
        static_cast<unsigned long long>(plan.window_base));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  TP_CHECK_OK(flags.Parse(argc, argv));
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty() || flags.help_requested()) {
    std::fprintf(stderr,
                 "usage: tickpoint_inspect --dir <checkpoint dir> "
                 "[--rows N] [--cols M] [--object-size B]\n"
                 "       tickpoint_inspect --dir <checkpoint dir> --history "
                 "[--max-generations N] [--max-retained-ticks T]\n");
    return 2;
  }
  if (flags.GetBool("history", false)) {
    return InspectHistory(dir, flags);
  }
  StateLayout layout;
  layout.rows = static_cast<uint64_t>(flags.GetInt64("rows", 1000000));
  layout.cols = static_cast<uint64_t>(flags.GetInt64("cols", 10));
  layout.object_size =
      static_cast<uint64_t>(flags.GetInt64("object-size", 512));
  TP_CHECK(layout.Valid());

  std::printf("inspecting %s (assumed layout: %llu x %llu cells, %llu-byte "
              "objects)\n\n",
              dir.c_str(), static_cast<unsigned long long>(layout.rows),
              static_cast<unsigned long long>(layout.cols),
              static_cast<unsigned long long>(layout.object_size));

  // Double-backup images, opened read-only.
  bool any_backup = FileExists(dir + "/backup0.img") ||
                    FileExists(dir + "/backup1.img");
  uint64_t best_tick = 0;
  if (any_backup) {
    auto store_or = BackupStore::Open(dir, layout, false, /*backend=*/nullptr,
                                      /*writable=*/false);
    TP_CHECK_OK(store_or.status());
    TablePrinter table({"backup", "status", "checkpoint #",
                        "consistent through tick", "state CRC"});
    for (int i = 0; i < 2; ++i) {
      auto info_or = store_or.value()->Inspect(i);
      if (!info_or.ok()) {
        table.AddRow({std::to_string(i), info_or.status().ToString(), "-",
                      "-", "-"});
        continue;
      }
      const ImageInfo& info = *info_or;
      if (info.valid && info.consistent_tick > best_tick) {
        best_tick = info.consistent_tick;
      }
      char crc[16];
      std::snprintf(crc, sizeof(crc), "%08x", info.state_crc);
      table.AddRow({std::to_string(i),
                    info.valid ? "VALID" : "invalid/torn",
                    info.valid ? std::to_string(info.seq) : "-",
                    info.valid ? std::to_string(info.consistent_tick) : "-",
                    info.valid && info.state_crc ? crc : "(unchecked)"});
    }
    std::printf("double-backup images\n");
    table.Print();
    std::printf("\n");
  }

  // Checkpoint-log generations.
  bool any_log = false;
  {
    auto store_or = LogStore::Open(dir, layout, false);
    TP_CHECK_OK(store_or.status());
    for (uint64_t gen = 0; gen <= store_or.value()->current_generation();
         ++gen) {
      const std::string path = dir + "/log-" + std::to_string(gen) + ".img";
      if (!FileExists(path)) continue;
      any_log = true;
      auto segments_or = store_or.value()->ListSegments(gen);
      if (!segments_or.ok()) {
        std::printf("generation %llu: %s\n",
                    static_cast<unsigned long long>(gen),
                    segments_or.status().ToString().c_str());
        continue;
      }
      TablePrinter table({"segment", "checkpoint #", "consistent tick",
                          "objects", "kind"});
      size_t index = 0;
      for (const SegmentInfo& segment : segments_or.value()) {
        if (segment.consistent_tick > best_tick) {
          best_tick = segment.consistent_tick;
        }
        table.AddRow({std::to_string(index++),
                      std::to_string(segment.seq),
                      std::to_string(segment.consistent_tick),
                      std::to_string(segment.object_count),
                      segment.full_flush ? "FULL FLUSH" : "incremental"});
      }
      std::printf("checkpoint log generation %llu (%zu intact segments)\n",
                  static_cast<unsigned long long>(gen),
                  segments_or.value().size());
      table.Print();
      std::printf("\n");
    }
  }

  // Logical log.
  const std::string logical = Engine::LogicalLogPath(dir);
  if (FileExists(logical)) {
    auto count_or = LogicalLog::CountDurableTicks(logical);
    TP_CHECK_OK(count_or.status());
    std::printf("logical log: %llu durable tick records\n",
                static_cast<unsigned long long>(count_or.value()));
    std::printf(
        "recovery would restore through tick %llu from checkpoints, then "
        "replay the logical log forward.\n",
        static_cast<unsigned long long>(best_tick));
  } else if (!any_backup && !any_log) {
    std::printf("no tickpoint artifacts found in %s\n", dir.c_str());
    return 1;
  }
  return 0;
}
