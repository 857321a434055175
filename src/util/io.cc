#include "util/io.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include <filesystem>

namespace tickpoint {
namespace {

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

}  // namespace

FileWriter::~FileWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileWriter::Open(const std::string& path) {
  TP_CHECK(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return Errno("open", path);
  path_ = path;
  return Status::OK();
}

Status FileWriter::OpenForUpdate(const std::string& path) {
  TP_CHECK(file_ == nullptr);
  // "r+b" fails if missing; fall back to "w+b" to create.
  file_ = std::fopen(path.c_str(), "r+b");
  if (file_ == nullptr) file_ = std::fopen(path.c_str(), "w+b");
  if (file_ == nullptr) return Errno("open", path);
  path_ = path;
  return Status::OK();
}

Status FileWriter::Append(const void* data, size_t length) {
  TP_CHECK(file_ != nullptr);
  if (std::fwrite(data, 1, length, file_) != length) {
    return Errno("write", path_);
  }
  bytes_written_ += length;
  return Status::OK();
}

Status FileWriter::WriteAt(uint64_t offset, const void* data, size_t length) {
  TP_CHECK(file_ != nullptr);
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Errno("seek", path_);
  }
  if (std::fwrite(data, 1, length, file_) != length) {
    return Errno("write", path_);
  }
  bytes_written_ += length;
  return Status::OK();
}

Status FileWriter::Flush() {
  TP_CHECK(file_ != nullptr);
  if (std::fflush(file_) != 0) return Errno("flush", path_);
  return Status::OK();
}

Status FileWriter::Sync() {
  TP_RETURN_NOT_OK(Flush());
  if (::fsync(::fileno(file_)) != 0) return Errno("fsync", path_);
  return Status::OK();
}

Status FileWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Errno("close", path_);
  return Status::OK();
}

FileReader::~FileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileReader::Open(const std::string& path) {
  TP_CHECK(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return Errno("open", path);
  path_ = path;
  return Status::OK();
}

Status FileReader::ReadExact(void* out, size_t length) {
  TP_CHECK(file_ != nullptr);
  if (std::fread(out, 1, length, file_) != length) {
    return Status::IOError("short read from " + path_);
  }
  return Status::OK();
}

Status FileReader::ReadAt(uint64_t offset, void* out, size_t length) {
  TP_RETURN_NOT_OK(Seek(offset));
  return ReadExact(out, length);
}

Status FileReader::Seek(uint64_t offset) {
  TP_CHECK(file_ != nullptr);
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Errno("seek", path_);
  }
  return Status::OK();
}

StatusOr<uint64_t> FileReader::Tell() {
  TP_CHECK(file_ != nullptr);
  const long pos = std::ftell(file_);
  if (pos < 0) return Errno("tell", path_);
  return static_cast<uint64_t>(pos);
}

StatusOr<uint64_t> FileReader::Size() {
  TP_CHECK(file_ != nullptr);
  struct stat st;
  if (::fstat(::fileno(file_), &st) != 0) return Errno("stat", path_);
  return static_cast<uint64_t>(st.st_size);
}

Status FileReader::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Errno("close", path_);
  return Status::OK();
}

Status ReadFileToString(const std::string& path, std::string* out) {
  FileReader reader;
  TP_RETURN_NOT_OK(reader.Open(path));
  TP_ASSIGN_OR_RETURN(const uint64_t size, reader.Size());
  out->resize(size);
  if (size > 0) {
    TP_RETURN_NOT_OK(reader.ReadExact(out->data(), size));
  }
  return reader.Close();
}

Status WriteStringToFile(const std::string& path, const std::string& data) {
  FileWriter writer;
  TP_RETURN_NOT_OK(writer.Open(path));
  TP_RETURN_NOT_OK(writer.Append(data.data(), data.size()));
  return writer.Close();
}

Status PublishFile(const std::string& path, const std::string& data,
                   bool fsync, const std::string& what) {
  const std::string tmp = path + ".tmp";
  {
    FileWriter writer;
    TP_RETURN_NOT_OK(writer.Open(tmp));
    TP_RETURN_NOT_OK(writer.Append(data.data(), data.size()));
    TP_RETURN_NOT_OK(fsync ? writer.Sync() : writer.Flush());
    TP_RETURN_NOT_OK(writer.Close());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("commit " + what + " " + path + ": " +
                           ec.message());
  }
  if (fsync) {
    TP_RETURN_NOT_OK(
        SyncDirectory(std::filesystem::path(path).parent_path().string()));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Errno("unlink", path);
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir " + path + ": " + ec.message());
  return Status::OK();
}

Status SyncDirectory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", path);
  return Status::OK();
}

}  // namespace tickpoint
