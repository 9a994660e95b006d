#include "storage/spill.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace wsq {

namespace {

std::string DefaultSpillDir() {
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return "/tmp";
}

}  // namespace

// --- SpillWriter ---

SpillWriter::SpillWriter(SpillFile* file) : file_(file) {
  std::memset(frame_, 0, sizeof(frame_));
}

Status SpillWriter::FlushPage() {
  Status st = FlushPageImpl();
  if (!st.ok()) {
    FlightRecorder::Global()->Record(
        FrEventType::kSpillFail, "spill", StatusCodeToString(st.code()),
        /*query_id=*/0, static_cast<int64_t>(run_.records),
        static_cast<int64_t>(run_.bytes));
  }
  return st;
}

Status SpillWriter::FlushPageImpl() {
  // Zero the tail a final partial page leaves, so no stale bytes from
  // the previous page reach the file.
  std::memset(frame_ + kPageHeaderSize + frame_used_, 0,
              kPageDataSize - frame_used_);
  WSQ_ASSIGN_OR_RETURN(PageId page, file_->disk()->AppendPage(frame_));
  if (!started_) {
    run_.first_page = page;
    started_ = true;
  }
  frame_used_ = 0;
  return Status::OK();
}

Status SpillWriter::PutBytes(const char* data, size_t n) {
  while (n > 0) {
    if (frame_used_ == kPageDataSize) {
      WSQ_RETURN_IF_ERROR(FlushPage());
    }
    size_t take = kPageDataSize - frame_used_;
    if (take > n) take = n;
    std::memcpy(frame_ + kPageHeaderSize + frame_used_, data, take);
    frame_used_ += take;
    data += take;
    n -= take;
  }
  return Status::OK();
}

Status SpillWriter::Append(std::string_view record) {
  if (finished_) return Status::Internal("append to a finished run");
  char len[4];
  uint32_t n = static_cast<uint32_t>(record.size());
  std::memcpy(len, &n, 4);
  WSQ_RETURN_IF_ERROR(PutBytes(len, 4));
  WSQ_RETURN_IF_ERROR(PutBytes(record.data(), record.size()));
  run_.records++;
  run_.bytes += 4 + record.size();
  return Status::OK();
}

Result<SpillRun> SpillWriter::Finish() {
  if (finished_) return Status::Internal("run finished twice");
  finished_ = true;
  if (frame_used_ > 0 || !started_) {
    WSQ_RETURN_IF_ERROR(FlushPage());
  }
  SpillManager* mgr = file_->manager_;
  mgr->runs_written_.fetch_add(1, std::memory_order_relaxed);
  mgr->records_written_.fetch_add(run_.records,
                                  std::memory_order_relaxed);
  mgr->bytes_written_.fetch_add(run_.bytes, std::memory_order_relaxed);
  FlightRecorder::Global()->Record(FrEventType::kSpillRun, "spill",
                                   /*cause=*/"", /*query_id=*/0,
                                   static_cast<int64_t>(run_.records),
                                   static_cast<int64_t>(run_.bytes));
  return run_;
}

// --- SpillReader ---

SpillReader::SpillReader(SpillFile* file, const SpillRun& run)
    : file_(file),
      run_(run),
      next_page_(run.first_page),
      remaining_bytes_(run.bytes),
      remaining_records_(run.records) {
  std::memset(frame_, 0, sizeof(frame_));
}

Status SpillReader::GetBytes(char* out, size_t n) {
  while (n > 0) {
    if (frame_offset_ == kPageDataSize) {
      WSQ_RETURN_IF_ERROR(file_->disk()->ReadPage(next_page_, frame_));
      ++next_page_;
      frame_offset_ = 0;
    }
    size_t take = kPageDataSize - frame_offset_;
    if (take > n) take = n;
    std::memcpy(out, frame_ + kPageHeaderSize + frame_offset_, take);
    frame_offset_ += take;
    out += take;
    n -= take;
  }
  return Status::OK();
}

Result<bool> SpillReader::Next(std::string* record) {
  if (remaining_records_ == 0) return false;
  char lenbuf[4];
  uint32_t len;
  if (remaining_bytes_ < 4) {
    return Status::DataLoss("spill run truncated: missing record length");
  }
  WSQ_RETURN_IF_ERROR(GetBytes(lenbuf, 4));
  std::memcpy(&len, lenbuf, 4);
  remaining_bytes_ -= 4;
  if (len > remaining_bytes_) {
    return Status::DataLoss("spill run truncated: record past end");
  }
  record->resize(len);
  WSQ_RETURN_IF_ERROR(GetBytes(record->data(), len));
  remaining_bytes_ -= len;
  --remaining_records_;
  file_->manager_->bytes_read_.fetch_add(4 + len,
                                         std::memory_order_relaxed);
  return true;
}

// --- SpillFile ---

SpillFile::~SpillFile() {
  // Release the device (close the file) before removing its path.
  disk_.reset();
  if (cleanup_) cleanup_();
  manager_->files_removed_.fetch_add(1, std::memory_order_relaxed);
  manager_->active_files_.fetch_sub(1, std::memory_order_relaxed);
}

// --- SpillManager ---

SpillManager::SpillManager(Options options)
    : options_(std::move(options)) {
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [this](MetricsEmitter* emitter) {
        SpillStats s = stats();
        emitter->EmitCounter("wsq_spill_files_created_total",
                             "Spill temp files created", {},
                             s.files_created);
        emitter->EmitCounter("wsq_spill_files_removed_total",
                             "Spill temp files removed", {},
                             s.files_removed);
        emitter->EmitCounter("wsq_spill_runs_total",
                             "Sorted runs written to spill files", {},
                             s.runs_written);
        emitter->EmitCounter("wsq_spill_write_bytes_total",
                             "Record bytes written to spill runs", {},
                             s.bytes_written);
        emitter->EmitCounter("wsq_spill_read_bytes_total",
                             "Record bytes read back from spill runs",
                             {}, s.bytes_read);
        emitter->EmitGauge("wsq_spill_active_files",
                           "Spill temp files currently alive", {},
                           static_cast<int64_t>(active_files()));
      });
}

SpillManager::~SpillManager() {
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
}

Result<SpillManager::Device> SpillManager::NewDevice() {
  std::string dir = options_.dir.empty() ? DefaultSpillDir() : options_.dir;
  uint64_t id = next_file_id_.fetch_add(1, std::memory_order_relaxed);
  std::string path =
      StrFormat("%s/wsq_spill_%d_%llu.tmp", dir.c_str(),
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(id));
  // Scratch data wants checksums (DataLoss on a torn page), not
  // durability: kNone skips every fsync.
  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<FileDiskManager> disk,
                       FileDiskManager::Open(path, SyncPolicy::kNone));
  Device device;
  device.disk = std::move(disk);
  device.cleanup = [path] { std::remove(path.c_str()); };
  return device;
}

Result<std::unique_ptr<SpillFile>> SpillManager::Create() {
  WSQ_ASSIGN_OR_RETURN(Device device, NewDevice());
  files_created_.fetch_add(1, std::memory_order_relaxed);
  active_files_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<SpillFile>(new SpillFile(
      this, std::move(device.disk), std::move(device.cleanup)));
}

SpillStats SpillManager::stats() const {
  SpillStats s;
  s.files_created = files_created_.load(std::memory_order_relaxed);
  s.files_removed = files_removed_.load(std::memory_order_relaxed);
  s.runs_written = runs_written_.load(std::memory_order_relaxed);
  s.records_written = records_written_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wsq
