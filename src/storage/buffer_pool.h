#ifndef WSQ_STORAGE_BUFFER_POOL_H_
#define WSQ_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace wsq {

/// Counters exposed for tests and the micro benchmarks.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
  /// Dirty-page write-backs that failed (flush, eviction, FlushAll).
  uint64_t flush_failures = 0;
  /// Clean resident pages dropped by a MemoryBudget pressure callback
  /// (a subset of `evictions`).
  uint64_t pressure_shed = 0;
};

/// Page cache with LRU replacement over a DiskManager.
///
/// The paper's substrate ("Redbase ... includes a page-level buffer") is
/// reproduced here. Pinned pages are never evicted; fetching more pinned
/// pages than the pool has frames is an error.
class BufferPool {
 public:
  /// `pool_size` is the number of frames; must be >= 1.
  BufferPool(size_t pool_size, DiskManager* disk);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Returns the pinned page `page_id`, reading it from disk on a miss.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a new page on disk and returns it pinned.
  Result<Page*> NewPage();

  /// Drops a pin; `dirty` marks the page as modified.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes a page back if resident and dirty.
  Status FlushPage(PageId page_id);

  /// Writes back all dirty resident pages. A failing page does not
  /// stop the sweep: every other dirty page is still written, the page
  /// that failed stays dirty, and the first error is returned.
  Status FlushAll();

  /// Copies of every dirty resident page (id + full kPageSize frame),
  /// sorted by page id. Dirty bits are left untouched: this is the
  /// read-only first phase of a WAL-backed checkpoint.
  std::vector<std::pair<PageId, std::string>> DirtyPageImages() const;

  /// Charges kPageSize per resident page to `budget` (ForceReserve —
  /// residency is decided by the LRU, not by admission) and registers a
  /// pressure hook that sheds clean unpinned pages on demand: tier 2 of
  /// the degradation ladder. Shed pages cost only a re-read; dirty
  /// pages are never shed under pressure (that would trade memory for
  /// write I/O on an already-stressed process). Call once, before
  /// concurrent use; the budget must outlive this pool.
  void AttachBudget(MemoryBudget* budget);

  /// Drops clean unpinned resident pages (LRU first) until `wanted`
  /// bytes are freed or none qualify; returns bytes freed. Public for
  /// tests; also the body of the pressure hook.
  size_t ShedCleanPages(size_t wanted);

  size_t pool_size() const { return frames_.size(); }
  /// Pages currently resident (each charges kPageSize to an attached
  /// budget).
  size_t resident_pages() const;
  /// Resident pages holding at least one pin. Zero between statements:
  /// tests use it to check that every scan dropped its pins.
  size_t pinned_pages() const;
  BufferPoolStats stats() const;

 private:
  /// Finds a frame for a new resident page, evicting the LRU unpinned
  /// page if needed.
  Result<size_t> GetVictimFrame() WSQ_REQUIRES(mu_);

  /// Moves `frame` to the MRU position.
  void Touch(size_t frame) WSQ_REQUIRES(mu_);

  mutable Mutex mu_;
  DiskManager* disk_;
  /// The frame array itself is sized once in the constructor; the Page
  /// objects it points at are handed out to callers, so only the
  /// pool-side bookkeeping below is guarded.
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, size_t> page_table_ WSQ_GUARDED_BY(mu_);
  std::list<size_t> lru_ WSQ_GUARDED_BY(mu_);  // front = LRU, back = MRU
  std::unordered_map<size_t, std::list<size_t>::iterator> lru_pos_
      WSQ_GUARDED_BY(mu_);
  std::vector<size_t> free_frames_ WSQ_GUARDED_BY(mu_);
  BufferPoolStats stats_ WSQ_GUARDED_BY(mu_);
  /// Set once by AttachBudget before concurrent use. Charges use
  /// ForceReserve/Release only (atomics, no hooks), so they are safe
  /// under mu_.
  MemoryBudget* budget_ = nullptr;
  uint64_t pressure_hook_id_ = 0;
  /// Metrics-registry collector handle, removed in the destructor.
  uint64_t collector_id_ = 0;
};

/// RAII pin guard: unpins on destruction.
class PageGuard {
 public:
  /// An empty guard, holding no pin.
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& o) noexcept
      : pool_(o.pool_), page_(o.page_), dirty_(o.dirty_) {
    o.page_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pool_ = o.pool_;
      page_ = o.page_;
      dirty_ = o.dirty_;
      o.page_ = nullptr;
    }
    return *this;
  }

  ~PageGuard() { Release(); }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }

  /// Marks the page dirty at unpin time.
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (page_ != nullptr) {
      // Unpin can only fail on misuse (page not resident / not
      // pinned), which a live guard rules out by construction.
      WSQ_IGNORE_STATUS(pool_->UnpinPage(page_->page_id(), dirty_));
      page_ = nullptr;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace wsq

#endif  // WSQ_STORAGE_BUFFER_POOL_H_
