// Tests for CRC32, histogram/stats, flags, table printer, and file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "util/crc32.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/io.h"
#include "util/table_printer.h"

namespace tickpoint {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(Crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t part = Crc32(data.data(), split);
    const uint32_t chained =
        Crc32(data.data() + split, data.size() - split, part);
    EXPECT_EQ(chained, whole) << "split " << split;
  }
}

// The textbook one-byte-at-a-time CRC-32, with no table: the reference the
// word-wise kernel must match bit for bit.
uint32_t BitwiseCrc32(const unsigned char* data, size_t length,
                      uint32_t initial) {
  uint32_t crc = ~initial;
  for (size_t i = 0; i < length; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesTheBitwiseReferenceAtEveryLengthAndOffset) {
  std::vector<unsigned char> data(1100 + 16);
  uint32_t x = 0x9E3779B9u;
  for (auto& byte : data) {
    x = x * 1664525u + 1013904223u;
    byte = static_cast<unsigned char>(x >> 24);
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      const unsigned char* p = data.data() + offset;
      ASSERT_EQ(Crc32(p, length), BitwiseCrc32(p, length, 0))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32(p, length, 0xDEADBEEFu),
                BitwiseCrc32(p, length, 0xDEADBEEFu))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, ChainingIdentityHoldsAcrossWordBoundaries) {
  // crc32.h: Crc32(data, len) == Crc32(data + k, len - k, Crc32(data, k)),
  // for splits that land inside and on the kernel's 16-byte steps.
  std::vector<unsigned char> data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t k = 0; k <= data.size(); ++k) {
    EXPECT_EQ(Crc32(data.data() + k, data.size() - k, Crc32(data.data(), k)),
              whole)
        << "split " << k;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(128, 'a');
  const uint32_t clean = Crc32(data.data(), data.size());
  data[77] ^= 1;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(v);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
  EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(RunningStatTest, EmptyIsZeroes) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(SampleSeriesTest, PercentilesExact) {
  SampleSeries series;
  for (int i = 100; i >= 1; --i) series.Add(i);  // 1..100 reversed
  EXPECT_EQ(series.count(), 100u);
  EXPECT_DOUBLE_EQ(series.Min(), 1.0);
  EXPECT_DOUBLE_EQ(series.Max(), 100.0);
  EXPECT_DOUBLE_EQ(series.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(series.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(series.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(series.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(series.Percentile(0), 1.0);
}

TEST(FlagsTest, ParsesBothSyntaxes) {
  const char* argv[] = {"prog", "--ticks=500", "--skew", "0.8", "--csv"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt64("ticks", 0), 500);
  EXPECT_DOUBLE_EQ(flags.GetDouble("skew", 0.0), 0.8);
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_EQ(flags.GetInt64("missing", 7), 7);
}

TEST(FlagsTest, RejectsBareTokens) {
  const char* argv[] = {"prog", "oops"};
  Flags flags;
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, HelpDetected) {
  const char* argv[] = {"prog", "--help"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
}

TEST(FlagsTest, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--unused=2"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(3, const_cast<char**>(argv)).ok());
  flags.GetInt64("used", 0);
  const auto unused = flags.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(TablePrinterTest, FormatsSeconds) {
  EXPECT_EQ(TablePrinter::Seconds(1.5), "1.500 s");
  EXPECT_EQ(TablePrinter::Seconds(0.0123), "12.300 ms");
  EXPECT_EQ(TablePrinter::Seconds(45e-6), "45.000 us");
  EXPECT_EQ(TablePrinter::Seconds(12e-9), "12.0 ns");
}

TEST(TablePrinterTest, FormatsBytes) {
  EXPECT_EQ(TablePrinter::Bytes(512), "512 B");
  EXPECT_EQ(TablePrinter::Bytes(40e6), "38.15 MB");
  EXPECT_EQ(TablePrinter::Bytes(2.5 * 1073741824.0), "2.50 GB");
}

TEST(TablePrinterTest, PrintsAlignedTable) {
  TablePrinter table({"algo", "value"});
  table.AddRow({"naive", "1"});
  table.AddRow({"copy-on-update", "2"});
  const std::string path = TempPath("tp_table_test.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  table.Print(f);
  std::fclose(f);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(path, &contents).ok());
  EXPECT_NE(contents.find("algo"), std::string::npos);
  EXPECT_NE(contents.find("copy-on-update  2"), std::string::npos);
  ASSERT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(IoTest, RoundTripWholeFile) {
  const std::string path = TempPath("tp_io_test.bin");
  const std::string payload = "hello checkpoint\0world";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  EXPECT_TRUE(FileExists(path));
  std::string readback;
  ASSERT_TRUE(ReadFileToString(path, &readback).ok());
  EXPECT_EQ(readback, payload);
  ASSERT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_FALSE(FileExists(path));
}

TEST(IoTest, WriteAtAndReadAt) {
  const std::string path = TempPath("tp_io_positional.bin");
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  const char zeros[16] = {0};
  ASSERT_TRUE(writer.Append(zeros, sizeof(zeros)).ok());
  ASSERT_TRUE(writer.WriteAt(4, "ABCD", 4).ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  char buf[4];
  ASSERT_TRUE(reader.ReadAt(4, buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "ABCD");
  auto size = reader.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 16u);
  ASSERT_TRUE(reader.Close().ok());
  ASSERT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(IoTest, ShortReadIsError) {
  const std::string path = TempPath("tp_io_short.bin");
  ASSERT_TRUE(WriteStringToFile(path, "xy").ok());
  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  char buf[8];
  EXPECT_EQ(reader.ReadExact(buf, 8).code(), StatusCode::kIOError);
  ASSERT_TRUE(RemoveFileIfExists(path).ok());
}

TEST(IoTest, MissingFileIsError) {
  FileReader reader;
  EXPECT_EQ(reader.Open(TempPath("definitely_missing_tp")).code(),
            StatusCode::kIOError);
}

TEST(IoTest, RemoveMissingIsOk) {
  EXPECT_TRUE(RemoveFileIfExists(TempPath("never_existed_tp")).ok());
}

TEST(IoTest, EnsureDirectoryCreatesNested) {
  const std::string dir = TempPath("tp_dir_a/b/c");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(TempPath("tp_dir_a"));
}

}  // namespace
}  // namespace tickpoint
