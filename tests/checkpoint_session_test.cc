// Tests for CheckpointWriteSession: runs arrive byte-exact and in id order,
// and the bounded buffer ring never hands a buffer back to the copy loop
// while a write still reads it.
#include "engine/checkpoint_session.h"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "util/io.h"

namespace tickpoint {
namespace {

constexpr uint64_t kObjectSize = 512;

/// Object `id`'s bytes: every byte differs between neighbours, so a
/// buffer refilled too early shows up as a content mismatch.
std::vector<uint8_t> ObjectBytes(ObjectId id) {
  std::vector<uint8_t> bytes(kObjectSize);
  for (uint64_t i = 0; i < kObjectSize; ++i) {
    bytes[i] = static_cast<uint8_t>(id * 131 + i * 7 + 1);
  }
  return bytes;
}

/// A backend whose writes complete only when someone waits for them. At
/// submission it snapshots the bytes; at completion it checks that the
/// source still holds them (the buffer was not refilled meanwhile) and
/// copies them into an in-memory image.
class LazyBackend : public IoBackend {
 public:
  explicit LazyBackend(uint32_t depth) : depth_(depth) {}

  uint32_t queue_depth() const override { return depth_; }

  IoTicket SubmitWrite(IoFile*, uint64_t offset, const void* data,
                       uint64_t length) override {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    pending_.push_back(Write{offset, bytes,
                             std::vector<uint8_t>(bytes, bytes + length)});
    max_pending_ = std::max<uint64_t>(max_pending_, pending_.size());
    return ++submitted_;
  }

  Status WaitFor(IoTicket ticket) override {
    ++waits_;
    while (completed_ < ticket && !pending_.empty()) {
      const Write& write = pending_.front();
      if (std::memcmp(write.source, write.snapshot.data(),
                      write.snapshot.size()) != 0) {
        ++overwritten_;
      }
      if (image.size() < write.offset + write.snapshot.size()) {
        image.resize(write.offset + write.snapshot.size());
      }
      std::memcpy(image.data() + write.offset, write.snapshot.data(),
                  write.snapshot.size());
      pending_.pop_front();
      ++completed_;
    }
    return Status::OK();
  }

  Status Drain() override { return WaitFor(submitted_); }

  std::vector<uint8_t> image;
  uint64_t overwritten_ = 0;
  uint64_t waits_ = 0;
  uint64_t max_pending_ = 0;

 private:
  struct Write {
    uint64_t offset;
    const uint8_t* source;
    std::vector<uint8_t> snapshot;
  };
  const uint32_t depth_;
  std::deque<Write> pending_;
  IoTicket submitted_ = 0;
  IoTicket completed_ = 0;
};

struct EmittedRun {
  ObjectId first;
  uint64_t count;
  std::vector<uint8_t> bytes;
};

TEST(CheckpointSessionTest, RunsArriveByteExactAndInIdOrder) {
  // Eight objects per (4 KiB) buffer; gaps and buffer ends both split
  // runs.
  const std::vector<ObjectId> ids = {0,  1,  2,  5,  6,  7,  8,
                                     9,  10, 11, 12, 20, 40, 41};
  std::vector<EmittedRun> runs;
  CheckpointWriteSession session(
      kObjectSize, /*backend=*/nullptr,
      [&](ObjectId first, const uint8_t* data,
          uint64_t count) -> StatusOr<IoTicket> {
        runs.push_back(EmittedRun{
            first, count,
            std::vector<uint8_t>(data, data + count * kObjectSize)});
        return IoTicket{0};
      },
      /*group_buffer_bytes=*/8 * kObjectSize);
  EXPECT_EQ(session.ring_depth(), 1u);
  for (const ObjectId id : ids) {
    ASSERT_TRUE(session.Add(id, ObjectBytes(id).data()).ok());
  }
  ASSERT_TRUE(session.Finish().ok());

  // Fill 1: {0,1,2} + {5..9}; fill 2: {10,11,12} + {20} + {40,41}.
  const std::vector<std::pair<ObjectId, uint64_t>> expected = {
      {0, 3}, {5, 5}, {10, 3}, {20, 1}, {40, 2}};
  ASSERT_EQ(runs.size(), expected.size());
  size_t next_id = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].first, expected[r].first) << "run " << r;
    EXPECT_EQ(runs[r].count, expected[r].second) << "run " << r;
    for (uint64_t k = 0; k < runs[r].count; ++k) {
      const ObjectId id = runs[r].first + k;
      ASSERT_LT(next_id, ids.size());
      EXPECT_EQ(id, ids[next_id++]);
      EXPECT_EQ(std::memcmp(runs[r].bytes.data() + k * kObjectSize,
                            ObjectBytes(id).data(), kObjectSize),
                0)
          << "object " << id;
    }
  }
  EXPECT_EQ(next_id, ids.size());
  EXPECT_EQ(session.runs_emitted(), expected.size());
  EXPECT_EQ(session.objects_added(), ids.size());
  // A synchronous emit reuses its single buffer.
  EXPECT_EQ(session.buffers_allocated(), 1u);
}

TEST(CheckpointSessionTest, RingBufferIsNeverRefilledBeforeItsTicketCompletes) {
  constexpr uint32_t kDepth = 3;
  constexpr uint64_t kObjects = 100;
  LazyBackend backend(kDepth);
  {
    CheckpointWriteSession session(
        kObjectSize, &backend,
        [&](ObjectId first, const uint8_t* data,
            uint64_t count) -> StatusOr<IoTicket> {
          return backend.SubmitWrite(nullptr, first * kObjectSize, data,
                                     count * kObjectSize);
        },
        /*group_buffer_bytes=*/8 * kObjectSize);
    EXPECT_EQ(session.ring_depth(), kDepth);
    for (ObjectId id = 0; id < kObjects; ++id) {
      // Past id 60 every third object is clean: runs of varied length.
      if (id > 60 && id % 3 == 1) continue;
      ASSERT_TRUE(session.Add(id, ObjectBytes(id).data()).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_LE(session.buffers_allocated(), kDepth);
  }
  EXPECT_EQ(backend.overwritten_, 0u);
  // The ring really did wrap and wait, with writes left in flight.
  EXPECT_GT(backend.waits_, 1u);
  EXPECT_GT(backend.max_pending_, 1u);
  ASSERT_EQ(backend.image.size(), kObjects * kObjectSize);
  for (ObjectId id = 0; id < kObjects; ++id) {
    if (id > 60 && id % 3 == 1) continue;
    EXPECT_EQ(std::memcmp(backend.image.data() + id * kObjectSize,
                          ObjectBytes(id).data(), kObjectSize),
              0)
        << "object " << id;
  }
}

TEST(CheckpointSessionTest, FullImageAllocatesAtMostRingDepthBuffers) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tp_session_full_image")
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  constexpr uint64_t kObjects = (8u << 20) / kObjectSize;  // an 8 MB image
  std::vector<uint8_t> state(kObjects * kObjectSize);
  for (ObjectId id = 0; id < kObjects; ++id) {
    std::memcpy(state.data() + id * kObjectSize, ObjectBytes(id).data(),
                kObjectSize);
  }
  auto backend = IoBackend::Create();
  IoFile file;
  ASSERT_TRUE(file.OpenForUpdate(dir + "/image").ok());
  {
    CheckpointWriteSession session(
        kObjectSize, backend.get(),
        [&](ObjectId first, const uint8_t* data,
            uint64_t count) -> StatusOr<IoTicket> {
          return backend->SubmitWrite(&file, first * kObjectSize, data,
                                      count * kObjectSize);
        });
    EXPECT_EQ(session.ring_depth(), backend->queue_depth());
    for (ObjectId id = 0; id < kObjects; ++id) {
      ASSERT_TRUE(session.Add(id, state.data() + id * kObjectSize).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    EXPECT_LE(session.buffers_allocated(), session.ring_depth());
    EXPECT_EQ(session.objects_added(), kObjects);
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(dir + "/image", &bytes).ok());
  ASSERT_EQ(bytes.size(), state.size());
  EXPECT_EQ(std::memcmp(bytes.data(), state.data(), state.size()), 0);
  ASSERT_TRUE(file.Close().ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointSessionTest, EmitErrorStopsTheSession) {
  int calls = 0;
  CheckpointWriteSession session(
      kObjectSize, /*backend=*/nullptr,
      [&](ObjectId, const uint8_t*, uint64_t) -> StatusOr<IoTicket> {
        ++calls;
        return Status::IOError("disk full");
      });
  ASSERT_TRUE(session.Add(0, ObjectBytes(0).data()).ok());
  // The gap flushes the open run, and the emit fails.
  const Status status = session.Add(2, ObjectBytes(2).data());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(session.runs_emitted(), 0u);
}

}  // namespace
}  // namespace tickpoint
