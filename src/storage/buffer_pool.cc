#include "storage/buffer_pool.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsq {

BufferPool::BufferPool(size_t pool_size, DiskManager* disk) : disk_(disk) {
  if (pool_size == 0) pool_size = 1;
  frames_.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(pool_size - 1 - i);
  }
  collector_id_ = MetricsRegistry::Global()->AddCollector(
      [this](MetricsEmitter* emitter) {
        BufferPoolStats s;
        size_t resident;
        {
          MutexLock lock(&mu_);
          s = stats_;
          resident = page_table_.size();
        }
        emitter->EmitCounter("wsq_buffer_pool_hits_total",
                             "Page fetches served from memory", {}, s.hits);
        emitter->EmitCounter("wsq_buffer_pool_misses_total",
                             "Page fetches that read from disk", {},
                             s.misses);
        emitter->EmitCounter("wsq_buffer_pool_evictions_total",
                             "Resident pages evicted by LRU", {},
                             s.evictions);
        emitter->EmitCounter("wsq_buffer_pool_flushes_total",
                             "Dirty pages written back to disk", {},
                             s.flushes);
        emitter->EmitCounter("wsq_buffer_pool_flush_failures_total",
                             "Dirty-page write-backs that failed", {},
                             s.flush_failures);
        emitter->EmitCounter(
            "wsq_buffer_pool_pressure_shed_total",
            "Clean pages shed by a memory-budget pressure callback", {},
            s.pressure_shed);
        emitter->EmitGauge("wsq_buffer_pool_resident_pages",
                           "Pages currently resident", {},
                           static_cast<int64_t>(resident));
        emitter->EmitGauge("wsq_buffer_pool_frames",
                           "Total frames in the pool", {},
                           static_cast<int64_t>(frames_.size()));
      });
}

BufferPool::~BufferPool() {
  MetricsRegistry::Global()->RemoveCollector(collector_id_);
  // Destructors can't propagate errors; failures were already counted
  // in stats_.flush_failures and the pages stay dirty in a dead pool.
  WSQ_IGNORE_STATUS(FlushAll());
  if (budget_ != nullptr) {
    budget_->RemovePressureHook(pressure_hook_id_);
    MutexLock lock(&mu_);
    budget_->Release(page_table_.size() * kPageSize);
  }
}

void BufferPool::AttachBudget(MemoryBudget* budget) {
  {
    MutexLock lock(&mu_);
    budget_ = budget;
    budget_->ForceReserve(page_table_.size() * kPageSize);
  }
  pressure_hook_id_ = budget->AddPressureHook(
      [this](size_t wanted) { return ShedCleanPages(wanted); });
}

size_t BufferPool::ShedCleanPages(size_t wanted) {
  MutexLock lock(&mu_);
  size_t freed = 0;
  // Walk LRU order (front = coldest). Collect victims first: erasing
  // from lru_ invalidates the iteration.
  std::vector<size_t> victims;
  for (size_t frame : lru_) {
    if (victims.size() * kPageSize >= wanted) break;
    Page* page = frames_[frame].get();
    if (page->pin_count_ == 0 && !page->is_dirty_) victims.push_back(frame);
  }
  for (size_t frame : victims) {
    Page* page = frames_[frame].get();
    page_table_.erase(page->page_id_);
    auto pos = lru_pos_.find(frame);
    if (pos != lru_pos_.end()) {
      lru_.erase(pos->second);
      lru_pos_.erase(pos);
    }
    page->Reset();
    free_frames_.push_back(frame);
    ++stats_.evictions;
    ++stats_.pressure_shed;
    if (budget_ != nullptr) budget_->Release(kPageSize);
    freed += kPageSize;
  }
  return freed;
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  MutexLock lock(&mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    ++stats_.hits;
    Page* page = frames_[it->second].get();
    ++page->pin_count_;
    Touch(it->second);
    return page;
  }
  ++stats_.misses;
  if (Tracer* tracer = Tracer::CurrentThread()) {
    // Attributes the disk read to the query running on this thread
    // (operators have no storage handle to thread a tracer through).
    tracer->Event("storage", "page_miss",
                  StrFormat("page=%d", page_id));
  }
  WSQ_ASSIGN_OR_RETURN(size_t frame, GetVictimFrame());
  Page* page = frames_[frame].get();
  WSQ_RETURN_IF_ERROR(disk_->ReadPage(page_id, page->data_));
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  page->is_dirty_ = false;
  page_table_[page_id] = frame;
  if (budget_ != nullptr) budget_->ForceReserve(kPageSize);
  Touch(frame);
  return page;
}

Result<Page*> BufferPool::NewPage() {
  MutexLock lock(&mu_);
  WSQ_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  WSQ_ASSIGN_OR_RETURN(size_t frame, GetVictimFrame());
  Page* page = frames_[frame].get();
  page->Reset();
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  page->is_dirty_ = true;
  page_table_[page_id] = frame;
  if (budget_ != nullptr) budget_->ForceReserve(kPageSize);
  Touch(frame);
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  MutexLock lock(&mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound(StrFormat("unpin of non-resident page %d",
                                      page_id));
  }
  Page* page = frames_[it->second].get();
  if (page->pin_count_ <= 0) {
    return Status::Internal(StrFormat("unpin of unpinned page %d", page_id));
  }
  --page->pin_count_;
  if (dirty) page->is_dirty_ = true;
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  MutexLock lock(&mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) return Status::OK();
  Page* page = frames_[it->second].get();
  if (page->is_dirty_) {
    Status s = disk_->WritePage(page_id, page->data_);
    if (!s.ok()) {
      ++stats_.flush_failures;
      return s;
    }
    page->is_dirty_ = false;
    ++stats_.flushes;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  MutexLock lock(&mu_);
  Status first_error;
  for (const auto& [page_id, frame] : page_table_) {
    Page* page = frames_[frame].get();
    if (!page->is_dirty_) continue;
    Status s = disk_->WritePage(page_id, page->data_);
    if (!s.ok()) {
      // Keep going: one bad page must not strand every other dirty
      // page in memory. The failed page stays dirty for a retry.
      ++stats_.flush_failures;
      if (first_error.ok()) first_error = s;
      continue;
    }
    page->is_dirty_ = false;
    ++stats_.flushes;
  }
  return first_error;
}

std::vector<std::pair<PageId, std::string>> BufferPool::DirtyPageImages()
    const {
  MutexLock lock(&mu_);
  std::vector<std::pair<PageId, std::string>> images;
  for (const auto& [page_id, frame] : page_table_) {
    const Page* page = frames_[frame].get();
    if (page->is_dirty_) {
      images.emplace_back(page_id, std::string(page->data_, kPageSize));
    }
  }
  std::sort(images.begin(), images.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return images;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t BufferPool::resident_pages() const {
  MutexLock lock(&mu_);
  return page_table_.size();
}

size_t BufferPool::pinned_pages() const {
  MutexLock lock(&mu_);
  size_t pinned = 0;
  for (const auto& [page_id, frame] : page_table_) {
    if (frames_[frame]->pin_count_ > 0) ++pinned;
  }
  return pinned;
}

Result<size_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least recently used unpinned page.
  for (size_t frame : lru_) {
    Page* page = frames_[frame].get();
    if (page->pin_count_ == 0) {
      if (page->is_dirty_) {
        Status s = disk_->WritePage(page->page_id_, page->data_);
        if (!s.ok()) {
          ++stats_.flush_failures;
          return s;
        }
        ++stats_.flushes;
      }
      ++stats_.evictions;
      page_table_.erase(page->page_id_);
      if (budget_ != nullptr) budget_->Release(kPageSize);
      auto pos = lru_pos_.find(frame);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
      page->Reset();
      return frame;
    }
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all pages pinned");
}

void BufferPool::Touch(size_t frame) {
  auto pos = lru_pos_.find(frame);
  if (pos != lru_pos_.end()) {
    lru_.erase(pos->second);
  }
  lru_.push_back(frame);
  lru_pos_[frame] = std::prev(lru_.end());
}

}  // namespace wsq
