#ifndef WSQ_STORAGE_FAULT_DISK_H_
#define WSQ_STORAGE_FAULT_DISK_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace wsq {

/// Declarative fault plan for the storage crash harness (the disk-side
/// sibling of net/FaultPlan). Mutating operations — page writes,
/// allocations and appends, syncs, WAL appends/resets — are counted
/// globally across every device attached to one FaultController, in
/// call order, so "the Nth operation of a checkpoint" addresses one
/// exact protocol step. Read corruption is keyed on (seed, page id),
/// not on arrival order, so the same pages are corrupt on every run.
struct DiskFaultPlan {
  uint64_t seed = 1;

  /// 1-based index of a mutating operation that fails with IOError.
  /// The op is dropped; the device keeps working. 0 = disabled.
  uint64_t fail_at_op = 0;

  /// 1-based index of the mutating operation at which the simulated
  /// machine loses power: the op fails, every device drops its
  /// un-synced state (keeping at most `torn_bytes` of the crashing
  /// write), and all further ops fail until FaultController::Recover().
  /// 0 = disabled.
  uint64_t crash_at_op = 0;

  /// Bytes of the crashing write/append that still reach durable
  /// storage — a torn write. -1 = none of it survives.
  int64_t torn_bytes = -1;

  /// Fraction of the page-id space whose reads come back with one
  /// flipped bit (position also derived from the hash), surfacing as
  /// Status::DataLoss from the checksum check.
  double read_bit_flip_rate = 0.0;
};

struct DiskFaultStats {
  uint64_t ops = 0;  // mutating operations observed
  uint64_t failed_ops = 0;
  uint64_t reads = 0;
  uint64_t bit_flips = 0;
  bool crashed = false;
};

/// Shared fault clock for one simulated machine: every fault-injecting
/// device registers its mutating ops here so a single plan can target
/// any step of a multi-device protocol (WAL + data file).
class FaultController {
 public:
  explicit FaultController(DiskFaultPlan plan = {});

  enum class Action { kOk, kFail, kCrash };

  /// Registers one mutating op and returns its fate.
  Action BeginMutation();

  bool crashed() const;

  /// Ends the simulated outage ("reboot"): devices work again. The op
  /// counter keeps running; call set_plan to re-arm or disarm faults.
  void Recover();

  /// Number of crashes so far; devices watch this to drop their
  /// un-synced state exactly once per power loss.
  uint64_t crash_epoch() const;

  void set_plan(DiskFaultPlan plan);
  DiskFaultPlan plan() const;
  DiskFaultStats stats() const;

  /// Content-keyed decision: should this read of `page_id` be
  /// corrupted? If so, `*bit` gets the bit position to flip.
  bool ShouldFlipBit(PageId page_id, size_t* bit);

  int64_t torn_bytes() const;

 private:
  /// Lock order: a device's mu_ is always acquired BEFORE the
  /// controller's mu_ (devices call controller methods while holding
  /// their own lock; the controller never calls back into a device).
  mutable Mutex mu_;
  DiskFaultPlan plan_ WSQ_GUARDED_BY(mu_);
  DiskFaultStats stats_ WSQ_GUARDED_BY(mu_);
  bool crashed_ WSQ_GUARDED_BY(mu_) = false;
  uint64_t crash_epoch_ WSQ_GUARDED_BY(mu_) = 0;
};

/// DiskManager decorator simulating storage faults and power loss.
///
/// Mirrors FileDiskManager's physical behaviour: writes are stamped
/// with the checksummed page header and reads verified, so injected
/// corruption surfaces as Status::DataLoss exactly as it would from
/// the real file backend. Writes buffer in a volatile overlay until
/// Sync() publishes them to the wrapped (durable) store; a crash
/// drops the overlay — what power loss leaves behind is precisely the
/// synced state. Wrap a raw store (InMemoryDiskManager) so injected
/// corruption is not silently re-checksummed; both it and the
/// controller must outlive this decorator.
class FaultInjectingDiskManager : public DiskManager {
 public:
  FaultInjectingDiskManager(DiskManager* durable, FaultController* ctl);

  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  Result<PageId> AppendPage(const char* data) override;
  PageId NumPages() const override;
  Status Sync() override;

  /// Pages written (or allocated) but not yet synced to the durable
  /// store.
  size_t unsynced_pages() const;

 private:
  /// Drops volatile state once per observed crash epoch.
  void DropOnNewEpochLocked() WSQ_REQUIRES(mu_);
  Status CrashNow(PageId torn_page, const char* torn_frame)
      WSQ_REQUIRES(mu_);

  DiskManager* durable_;
  FaultController* ctl_;

  mutable Mutex mu_;
  /// Unsynced stamped frames.
  std::map<PageId, std::string> overlay_ WSQ_GUARDED_BY(mu_);
  /// Includes unsynced allocations.
  PageId num_pages_ WSQ_GUARDED_BY(mu_);
  uint64_t next_lsn_ WSQ_GUARDED_BY(mu_) = 1;
  uint64_t seen_crash_epoch_ WSQ_GUARDED_BY(mu_) = 0;
};

/// WalStorage decorator with the same crash semantics: appends buffer
/// until Sync() publishes them to the wrapped durable log; a crash
/// drops the un-synced tail (keeping at most torn_bytes of the
/// crashing append — a torn log record).
class FaultInjectingWalStorage : public WalStorage {
 public:
  FaultInjectingWalStorage(WalStorage* durable, FaultController* ctl);

  Result<bool> Exists() override;
  Result<std::string> ReadAll() override;
  Status Append(std::string_view bytes) override;
  Status Sync() override;
  Status Reset() override;

  size_t unsynced_bytes() const;

 private:
  /// Drops the volatile tail once per observed crash epoch.
  void DropOnNewEpochLocked() WSQ_REQUIRES(mu_);

  WalStorage* durable_;
  FaultController* ctl_;

  mutable Mutex mu_;
  std::string volatile_ WSQ_GUARDED_BY(mu_);  // appended, unsynced
  uint64_t seen_crash_epoch_ WSQ_GUARDED_BY(mu_) = 0;
};

}  // namespace wsq

#endif  // WSQ_STORAGE_FAULT_DISK_H_
