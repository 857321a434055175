// Support code for the fleet benchmark: sample statistics, the in-memory
// span recorder used by traced runs, operation accounting, and the small
// readers of process and filesystem counters (/proc/self/io, getrusage,
// statfs, on-disk bytes).
#ifndef FLEETBENCH_HARNESS_H_
#define FLEETBENCH_HARNESS_H_

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) { return Seconds(d) * 1e3; }

/// A set of measured values with the percentile rules of the benchmark.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t n() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Linear-interpolated quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] +
           (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
  }
  double Median() const { return Quantile(0.5); }

  /// The highest percentile, at most p99, that leaves at least ten samples
  /// beyond it (the median when there are too few samples for any tail).
  double TailQ() const {
    const double n = static_cast<double>(values_.size());
    if (n <= 20) return 0.5;
    return std::min(0.99, 1.0 - 10.0 / n);
  }
  double Tail() const { return Quantile(TailQ()); }

 private:
  std::vector<double> values_;
};

/// One recorded span: `name` timed from `start` to `end`, caused by the
/// request `request` (a fleet tick, or an operation of the ending) whose
/// root span is `parent` (empty for a root span).
struct Span {
  std::string name;
  std::string parent;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }

  void Add(const char* name, const char* parent, uint64_t request,
           Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back(Span{name, parent, request, start, end});
  }

  /// Summed duration in microseconds of spans [first, last).
  double CoveredUs(size_t first, size_t last) const {
    double us = 0.0;
    for (size_t i = first; i < last && i < spans_.size(); ++i) {
      us += Seconds(spans_[i].end - spans_[i].start) * 1e6;
    }
    return us;
  }

  /// Writes every span as tab-separated text (times in microseconds since
  /// `origin`). Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path, Clock::time_point origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "request\tparent\tname\tstart_us\tend_us\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu\t%s\t%s\t%.3f\t%.3f\n",
                   static_cast<unsigned long long>(s.request),
                   s.parent.empty() ? "-" : s.parent.c_str(), s.name.c_str(),
                   Seconds(s.start - origin) * 1e6,
                   Seconds(s.end - origin) * 1e6);
    }
    return std::fclose(f) == 0;
  }

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Counts attempted and failed operations (ticks, cuts, failovers,
/// recoveries, restores) and keeps the first few failure messages.
class OpLedger {
 public:
  void Pass() { ++attempted_; }
  void Fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The fields of /proc/self/io the benchmark reads.
struct ProcIo {
  uint64_t wchar = 0;
  uint64_t syscw = 0;
  uint64_t write_bytes = 0;

  static ProcIo Read() {
    ProcIo io;
    std::ifstream in("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (in >> key >> value) {
      if (key == "wchar:") io.wchar = value;
      if (key == "syscw:") io.syscw = value;
      if (key == "write_bytes:") io.write_bytes = value;
    }
    return io;
  }
};

/// Peak resident set size of this process, in MB.
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sum of the apparent sizes of every regular file under `dir`.
inline uint64_t DiskBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uint64_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

/// fsyncs every file and directory under `dir` (best effort), so later
/// timings do not share the disk with writeback of earlier writes.
inline void FsyncTree(const std::string& dir) {
  std::error_code ec;
  std::vector<std::string> paths = {dir};
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    paths.push_back(it->path().string());
  }
  for (const std::string& path : paths) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fsync(fd);
    ::close(fd);
  }
}

/// Filesystem type name of the mount holding `path`, from statfs's magic.
inline std::string FilesystemType(const std::string& path, bool* is_tmpfs) {
  struct statfs fs {};
  *is_tmpfs = false;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(fs.f_type);
  static const std::pair<unsigned long, const char*> kNames[] = {
      {0xEF53UL, "ext2/3/4"},   {0x01021994UL, "tmpfs"},
      {0x58465342UL, "xfs"},    {0x9123683EUL, "btrfs"},
      {0x794C7630UL, "overlayfs"}, {0xF2F52010UL, "f2fs"},
      {0x2FC12FC1UL, "zfs"},    {0x6969UL, "nfs"},
      {0x858458F6UL, "ramfs"},
  };
  for (const auto& [m, name] : kNames) {
    if (m == magic) {
      *is_tmpfs = m == 0x01021994UL || m == 0x858458F6UL;
      return name;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", magic);
  return buf;
}

/// Removes a directory tree when it goes out of scope, on every exit path.
class ScopedRemoveAll {
 public:
  explicit ScopedRemoveAll(std::string path) : path_(std::move(path)) {}
  ~ScopedRemoveAll() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedRemoveAll(const ScopedRemoveAll&) = delete;
  ScopedRemoveAll& operator=(const ScopedRemoveAll&) = delete;

 private:
  std::string path_;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Human-readable detail for the report (sample count, percentiles).
  std::string detail;
  /// Printed in the report but left out of the result line.
  bool report_only = false;
};

/// "n=123 p50=1.234 p98.9=5.678" for a timing.
inline std::string Describe(const Samples& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "n=%zu min=%.4f p50=%.4f p%.1f=%.4f max=%.4f",
                s.n(), s.Quantile(0.0), s.Median(), s.TailQ() * 100.0,
                s.Tail(), s.Quantile(1.0));
  return buf;
}

/// Formats a double for JSON with every digit kept (NaN/inf become 0).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace fleetbench

#endif  // FLEETBENCH_HARNESS_H_
