#include "storage/disk_manager.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"
#include "storage/checksum.h"

namespace wsq {

Result<PageId> DiskManager::AllocatePage() {
  static const char kZeroFrame[kPageSize] = {};
  return AppendPage(kZeroFrame);
}

Status InMemoryDiskManager::ReadPage(PageId page_id, char* out) {
  MutexLock lock(&mu_);
  if (page_id < 0 || static_cast<size_t>(page_id) >= pages_.size()) {
    return Status::OutOfRange(
        StrFormat("read of unallocated page %d", page_id));
  }
  std::memcpy(out, pages_[page_id].get(), kPageSize);
  return Status::OK();
}

Status InMemoryDiskManager::WritePage(PageId page_id, const char* data) {
  MutexLock lock(&mu_);
  if (page_id < 0 || static_cast<size_t>(page_id) >= pages_.size()) {
    return Status::OutOfRange(
        StrFormat("write of unallocated page %d", page_id));
  }
  std::memcpy(pages_[page_id].get(), data, kPageSize);
  return Status::OK();
}

Result<PageId> InMemoryDiskManager::AppendPage(const char* data) {
  MutexLock lock(&mu_);
  auto page = std::make_unique<char[]>(kPageSize);
  std::memcpy(page.get(), data, kPageSize);
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

PageId InMemoryDiskManager::NumPages() const {
  MutexLock lock(&mu_);
  return static_cast<PageId>(pages_.size());
}

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::Open(
    const std::string& path, SyncPolicy sync) {
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  if (file == nullptr) {
    file = std::fopen(path.c_str(), "wb+");
  }
  if (file == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::IOError("seek failed on " + path);
  }
  long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    return Status::IOError("ftell failed on " + path);
  }
  if (size % static_cast<long>(kPageSize) != 0) {
    std::fclose(file);
    return Status::DataLoss(StrFormat(
        "%s: size %ld is not a multiple of the %zu-byte page size "
        "(torn final page)",
        path.c_str(), size, kPageSize));
  }
  PageId num_pages = static_cast<PageId>(size / kPageSize);
  return std::unique_ptr<FileDiskManager>(
      new FileDiskManager(path, file, num_pages, sync));
}

FileDiskManager::~FileDiskManager() {
  if (file_ == nullptr) return;
  // The destructor cannot surface errors; callers needing durability
  // must Sync() first. Still check so failures are at least visible.
  if (std::fflush(file_) != 0 || std::fclose(file_) != 0) {
    std::fprintf(stderr, "FileDiskManager: close of %s failed: %s\n",
                 path_.c_str(), std::strerror(errno));
  }
}

Status FileDiskManager::ReadPage(PageId page_id, char* out) {
  MutexLock lock(&mu_);
  if (page_id < 0 || page_id >= num_pages_) {
    return Status::OutOfRange(
        StrFormat("read of unallocated page %d", page_id));
  }
  if (std::fseek(file_, static_cast<long>(page_id) * kPageSize, SEEK_SET) !=
      0) {
    return Status::IOError("seek failed");
  }
  if (std::fread(out, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError(StrFormat("short read of page %d", page_id));
  }
  return VerifyPageHeader(page_id, out);
}

Status FileDiskManager::WritePage(PageId page_id, const char* data) {
  MutexLock lock(&mu_);
  if (page_id < 0 || page_id >= num_pages_) {
    return Status::OutOfRange(
        StrFormat("write of unallocated page %d", page_id));
  }
  char frame[kPageSize];
  std::memcpy(frame, data, kPageSize);
  StampPageHeader(page_id, next_lsn_++, frame);
  if (std::fseek(file_, static_cast<long>(page_id) * kPageSize, SEEK_SET) !=
      0) {
    return Status::IOError("seek failed");
  }
  if (std::fwrite(frame, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError(StrFormat("short write of page %d", page_id));
  }
  return Status::OK();
}

Result<PageId> FileDiskManager::AppendPage(const char* data) {
  MutexLock lock(&mu_);
  char frame[kPageSize];
  std::memcpy(frame, data, kPageSize);
  StampPageHeader(num_pages_, next_lsn_++, frame);
  if (std::fseek(file_, static_cast<long>(num_pages_) * kPageSize,
                 SEEK_SET) != 0) {
    return Status::IOError("seek failed");
  }
  if (std::fwrite(frame, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError("extend failed");
  }
  return num_pages_++;
}

PageId FileDiskManager::NumPages() const {
  MutexLock lock(&mu_);
  return num_pages_;
}

Status FileDiskManager::Sync() {
  MutexLock lock(&mu_);
  if (sync_ == SyncPolicy::kNone) return Status::OK();
  if (std::fflush(file_) != 0) {
    return Status::IOError("flush of " + path_ + " failed: " +
                           std::strerror(errno));
  }
  if (sync_ == SyncPolicy::kFull && ::fsync(fileno(file_)) != 0) {
    return Status::IOError("fsync of " + path_ + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace wsq
