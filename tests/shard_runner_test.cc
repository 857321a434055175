// Direct ShardRunner unit tests: the mailbox backpressure bound, the
// sticky-error drain contract, and the tick-stamped dirty-mark window,
// previously exercised only through the ShardedEngine facade.
#include "engine/shard_runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "util/sched_fuzz.h"

namespace tickpoint {
namespace {

class ShardRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string name = ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name();
    dir_ = (std::filesystem::temp_directory_path() / ("tp_runner_" + name))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::remove_all(dir_ + "_runner");
    std::filesystem::remove_all(dir_ + "_direct");
  }

  std::unique_ptr<Engine> OpenEngine(const std::string& suffix = "") {
    EngineConfig config;
    config.layout = StateLayout::Small(512, 10);
    config.algorithm = AlgorithmKind::kCopyOnUpdate;
    config.dir = dir_ + suffix;
    config.fsync = false;
    config.manual_checkpoints = true;
    auto engine_or = Engine::Open(config);
    EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
    return std::move(engine_or.value());
  }

  static ShardTickBatch MakeBatch(uint64_t tick, uint64_t updates) {
    ShardTickBatch batch;
    batch.tick = tick;
    batch.updates.reserve(updates);
    for (uint64_t i = 0; i < updates; ++i) {
      batch.updates.push_back(
          CellUpdate{static_cast<uint32_t>((tick * 31 + i) % 512),
                     static_cast<int32_t>(tick * 1000 + i)});
    }
    return batch;
  }

  /// Applies `batch` to `engine` on the calling thread, the way the
  /// runner's mutator thread does: the reference the runner must match.
  static void ApplyDirectly(Engine* engine, const ShardTickBatch& batch) {
    engine->BeginTick();
    for (const CellUpdate& update : batch.updates) {
      engine->ApplyUpdate(update.cell, update.value);
    }
    ASSERT_TRUE(engine->EndTick().ok());
  }

  std::string dir_;
};

TEST_F(ShardRunnerTest, BackpressureBoundsTheMailboxLag) {
  // The contract: SubmitTick blocks while the mailbox holds
  // max_queue_ticks batches, so after ANY SubmitTick returns the producer
  // leads the runner by at most max_queue_ticks queued batches plus the
  // one batch popped and mid-application. The batches are heavy (2000
  // updates each) and the submit loop is free-running, so the producer
  // genuinely outruns the consumer and the bound does real work.
  constexpr uint64_t kMaxQueue = 4;
  constexpr uint64_t kTicks = 200;
  ShardRunner runner(0, OpenEngine(), kMaxQueue, nullptr);
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    runner.SubmitTick(MakeBatch(tick, 2000));
    const uint64_t submitted = tick + 1;
    EXPECT_GE(runner.ticks_completed() + kMaxQueue + 1, submitted)
        << "mailbox exceeded its bound at tick " << tick;
  }
  ASSERT_TRUE(runner.Drain().ok());
  EXPECT_EQ(runner.ticks_completed(), kTicks);
  runner.Stop();
  EXPECT_EQ(runner.engine().current_tick(), kTicks);
  ASSERT_TRUE(runner.engine().Shutdown().ok());
}

TEST_F(ShardRunnerTest, StickyErrorFreezesTheEngineButDrainsTheMailbox) {
  ShardRunner runner(0, OpenEngine(), /*max_queue_ticks=*/8, nullptr);
  for (uint64_t tick = 0; tick < 3; ++tick) {
    runner.SubmitTick(MakeBatch(tick, 50));
  }
  ASSERT_TRUE(runner.Drain().ok());
  EXPECT_FALSE(runner.has_error());

  // Inject on the parked runner (Drain quiesced it), then keep submitting:
  // tick 3 fails, ticks 4..8 must be discarded-but-accounted so Drain and
  // Stop still terminate, and the engine stays frozen at its failure tick.
  runner.engine().InjectEndTickErrorForTest(Status::IOError("injected"));
  for (uint64_t tick = 3; tick < 9; ++tick) {
    runner.SubmitTick(MakeBatch(tick, 50));
  }
  const Status drain = runner.Drain();
  EXPECT_EQ(drain.code(), StatusCode::kIOError);
  EXPECT_TRUE(runner.has_error());
  EXPECT_EQ(runner.ticks_completed(), 9u);  // every batch accounted
  EXPECT_EQ(runner.engine().current_tick(), 3u);  // frozen at the failure

  // The first error is sticky across further submissions and drains.
  runner.SubmitTick(MakeBatch(9, 50));
  EXPECT_EQ(runner.Drain(), drain);
  EXPECT_EQ(runner.status(), drain);
  runner.Stop();
  runner.Stop();  // idempotent
  ASSERT_TRUE(runner.engine().Shutdown().ok());
}

TEST_F(ShardRunnerTest, MarkSamplesCoverTheWholeMailboxLag) {
  // The rebalancer reads every runner's dirty-mark count at the fleet's
  // slowest boundary, so a runner must still hold the sample of any
  // boundary the mailbox bound lets a sibling trail it by: after a
  // SubmitTick returns, boundary submitted - (max_queue_ticks + 1) is
  // readable, stamped with exactly the marks of the ticks before it.
  constexpr uint64_t kMaxQueue = 4;
  constexpr uint64_t kTicks = 200;
  constexpr uint64_t kUpdates = 2000;
  ShardRunner runner(0, OpenEngine(), kMaxQueue, nullptr);
  ASSERT_EQ(runner.MarksAt(0), std::optional<uint64_t>(0));
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    runner.SubmitTick(MakeBatch(tick, kUpdates));
    const uint64_t submitted = tick + 1;
    if (submitted < kMaxQueue + 1) continue;
    const uint64_t slowest = submitted - (kMaxQueue + 1);
    EXPECT_GE(runner.marks_boundary(), slowest);
    EXPECT_EQ(runner.MarksAt(slowest),
              std::optional<uint64_t>(slowest * kUpdates))
        << "boundary " << slowest << " after submitting tick " << tick;
  }
  ASSERT_TRUE(runner.Drain().ok());
  EXPECT_EQ(runner.marks_boundary(), kTicks);
  EXPECT_EQ(runner.MarksAt(kTicks), std::optional<uint64_t>(kTicks * kUpdates));
  // The window holds max_queue_ticks + 2 boundaries; older ones and
  // boundaries not yet reached read as absent, never as a stale count.
  EXPECT_TRUE(runner.MarksAt(kTicks - kMaxQueue - 1).has_value());
  EXPECT_FALSE(runner.MarksAt(kTicks - kMaxQueue - 2).has_value());
  EXPECT_FALSE(runner.MarksAt(kTicks + 1).has_value());
  runner.Stop();
  ASSERT_TRUE(runner.engine().Shutdown().ok());
}

TEST_F(ShardRunnerTest, RunnerMatchesADirectlyDrivenEngine) {
  // Mailbox-contract parity: the same batch sequence through a runner
  // (batches cross the lock-free ring to a mutator thread) and applied
  // directly to an engine on this thread must land on identical engine
  // state at every Drain barrier and at the end.
  ShardRunner runner(0, OpenEngine("_runner"), /*max_queue_ticks=*/4, nullptr);
  std::unique_ptr<Engine> direct = OpenEngine("_direct");
  constexpr uint64_t kTicks = 60;
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    runner.SubmitTick(MakeBatch(tick, 300));
    ApplyDirectly(direct.get(), MakeBatch(tick, 300));
    if (tick % 17 == 16) {
      // Drain is a barrier: afterwards the runner must be
      // indistinguishable from the directly driven engine.
      ASSERT_TRUE(runner.Drain().ok());
      ASSERT_EQ(runner.ticks_completed(), tick + 1);
      ASSERT_EQ(runner.engine().current_tick(), direct->current_tick());
      ASSERT_EQ(runner.engine().state().Digest(), direct->state().Digest());
    }
  }
  ASSERT_TRUE(runner.Drain().ok());
  EXPECT_EQ(runner.ticks_completed(), kTicks);
  EXPECT_EQ(direct->current_tick(), kTicks);
  EXPECT_EQ(runner.engine().state().Digest(), direct->state().Digest());
  runner.Stop();
  ASSERT_TRUE(runner.engine().Shutdown().ok());
  ASSERT_TRUE(direct->Shutdown().ok());
}

TEST_F(ShardRunnerTest, FuzzedScheduleKeepsTheContract) {
  // The schedule-perturbing stress: with SchedFuzz enabled the ring's
  // fuzz points yield/spin at the interesting interleaving windows, and
  // the runner must still match a deterministic direct replay of the same
  // batches. TP_SCHED_FUZZ_SEED replays a reported failure.
  uint64_t seed = 314159;
  if (const char* env = std::getenv("TP_SCHED_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  SCOPED_TRACE("replay with TP_SCHED_FUZZ_SEED=" + std::to_string(seed));
  SchedFuzz::Enable(seed);
  ShardRunner runner(0, OpenEngine("_runner"), /*max_queue_ticks=*/2, nullptr);
  std::unique_ptr<Engine> direct = OpenEngine("_direct");
  constexpr uint64_t kTicks = 400;
  for (uint64_t tick = 0; tick < kTicks; ++tick) {
    runner.SubmitTick(MakeBatch(tick, 64));
    ApplyDirectly(direct.get(), MakeBatch(tick, 64));
    EXPECT_GE(runner.ticks_completed() + 2 + 1, tick + 1)
        << "mailbox exceeded its bound at tick " << tick;
  }
  ASSERT_TRUE(runner.Drain().ok());
  SchedFuzz::Disable();
  EXPECT_EQ(runner.ticks_completed(), kTicks);
  EXPECT_EQ(runner.engine().current_tick(), kTicks);
  EXPECT_EQ(runner.engine().state().Digest(), direct->state().Digest());
  runner.Stop();
  ASSERT_TRUE(runner.engine().Shutdown().ok());
  ASSERT_TRUE(direct->Shutdown().ok());
}

}  // namespace
}  // namespace tickpoint
