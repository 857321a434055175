// Tests for the pluggable checkpoint write backends: both kinds must
// honor the ticket-frontier, sticky-error, and bounded-depth contracts
// the checkpoint write pipeline is built on.
#include "util/io_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "util/io.h"

namespace tickpoint {
namespace {

class IoBackendTest : public ::testing::TestWithParam<IoBackendKind> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("tp_iobackend_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(EnsureDirectory(dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(IoBackendTest, KindRoundTrip) {
  auto backend = IoBackend::Create(GetParam());
  EXPECT_EQ(backend->kind(), GetParam());
  auto parsed = ParseIoBackendKind(IoBackendKindName(GetParam()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), GetParam());
}

TEST_P(IoBackendTest, QueueDepthIsOneForSyncAndTheBoundForAsync) {
  auto backend = IoBackend::Create(GetParam(), /*max_in_flight=*/4);
  EXPECT_EQ(backend->queue_depth(),
            GetParam() == IoBackendKind::kSync ? 1u : 4u);
}

TEST_P(IoBackendTest, WritesLandAfterWaitFor) {
  auto backend = IoBackend::Create(GetParam());
  IoFile file;
  ASSERT_TRUE(file.OpenForUpdate(dir_ + "/data").ok());

  const std::string a(1024, 'a');
  const std::string b(512, 'b');
  backend->SubmitWrite(&file, 0, a.data(), a.size());
  const IoTicket last = backend->SubmitWrite(&file, a.size(), b.data(),
                                             b.size());
  // The frontier covers every earlier ticket too.
  ASSERT_TRUE(backend->WaitFor(last).ok());

  std::string bytes;
  ASSERT_TRUE(ReadFileToString(dir_ + "/data", &bytes).ok());
  ASSERT_EQ(bytes.size(), a.size() + b.size());
  EXPECT_EQ(bytes.substr(0, a.size()), a);
  EXPECT_EQ(bytes.substr(a.size()), b);
}

TEST_P(IoBackendTest, TicketsAreMonotonic) {
  auto backend = IoBackend::Create(GetParam());
  IoFile file;
  ASSERT_TRUE(file.OpenForUpdate(dir_ + "/data").ok());
  const char byte = 'x';
  IoTicket previous = 0;
  for (int i = 0; i < 16; ++i) {
    const IoTicket ticket =
        backend->SubmitWrite(&file, static_cast<uint64_t>(i), &byte, 1);
    EXPECT_GT(ticket, previous);
    previous = ticket;
  }
  EXPECT_TRUE(backend->Drain().ok());
}

TEST_P(IoBackendTest, DrainIsABarrierOverManyWrites) {
  // More writes than the in-flight bound: SubmitWrite must backpressure,
  // not drop or deadlock, and Drain must cover all of them.
  auto backend = IoBackend::Create(GetParam(), /*max_in_flight=*/4);
  IoFile file;
  ASSERT_TRUE(file.OpenForUpdate(dir_ + "/data").ok());
  constexpr int kWrites = 64;
  std::vector<std::string> payloads;
  payloads.reserve(kWrites);
  for (int i = 0; i < kWrites; ++i) {
    payloads.push_back(std::string(256, static_cast<char>('A' + (i % 26))));
    backend->SubmitWrite(&file, static_cast<uint64_t>(i) * 256,
                         payloads.back().data(), payloads.back().size());
  }
  ASSERT_TRUE(backend->Drain().ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(dir_ + "/data", &bytes).ok());
  ASSERT_EQ(bytes.size(), static_cast<size_t>(kWrites) * 256);
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(bytes[static_cast<size_t>(i) * 256],
              static_cast<char>('A' + (i % 26)))
        << "write " << i;
  }
}

TEST_P(IoBackendTest, WriteErrorIsStickyAndSurfacesFromWait) {
  auto backend = IoBackend::Create(GetParam());
  IoFile file;
  ASSERT_TRUE(file.OpenForUpdate(dir_ + "/data").ok());
  // Close the descriptor behind the backend's back: every subsequent
  // pwrite fails with EBADF.
  ASSERT_TRUE(file.Close().ok());
  const char byte = 'x';
  const IoTicket ticket = backend->SubmitWrite(&file, 0, &byte, 1);
  const Status first = backend->WaitFor(ticket);
  EXPECT_FALSE(first.ok());
  // The error is sticky: later barriers keep reporting it.
  EXPECT_FALSE(backend->Drain().ok());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IoBackendTest,
                         ::testing::Values(IoBackendKind::kSync,
                                           IoBackendKind::kAsync),
                         [](const auto& info) {
                           return std::string(IoBackendKindName(info.param));
                         });

}  // namespace
}  // namespace tickpoint
