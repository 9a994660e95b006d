#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/disk_manager.h"
#include "storage/fault_disk.h"
#include "storage/wal.h"
#include "wsq/database.h"

namespace wsq {
namespace {

/// One simulated machine: raw durable stores plus the fault-injecting
/// devices a WsqDatabase runs on.
struct SimMachine {
  explicit SimMachine(DiskFaultPlan plan = {})
      : ctl(plan), disk(&raw_disk, &ctl), wal(&raw_wal, &ctl) {}

  InMemoryDiskManager raw_disk;
  InMemoryWalStorage raw_wal;
  FaultController ctl;
  FaultInjectingDiskManager disk;
  FaultInjectingWalStorage wal;
};

WsqDatabase::Options HarnessOptions() {
  WsqDatabase::Options options;
  // The harness wants the last *checkpoint* to be the durable truth,
  // not whatever a clean close would add on top.
  options.checkpoint_on_close = false;
  // Generous pool: no mid-run dirty evictions, so every durable write
  // goes through the checkpoint protocol under test.
  options.buffer_pool_pages = 64;
  return options;
}

Result<std::unique_ptr<WsqDatabase>> OpenOn(SimMachine* m) {
  return WsqDatabase::OpenWithStorage(&m->disk, &m->wal, HarnessOptions());
}

struct TableState {
  int64_t count = -1;
  int64_t sum = -1;
  bool operator==(const TableState& o) const {
    return count == o.count && sum == o.sum;
  }
};

/// Reopens the database and reads back T's aggregate state.
Result<TableState> ReadState(SimMachine* m) {
  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<WsqDatabase> db, OpenOn(m));
  WSQ_ASSIGN_OR_RETURN(QueryExecution r,
                       db->Execute("SELECT COUNT(*), SUM(A) FROM T"));
  TableState state;
  state.count = r.result.rows[0].value(0).AsInt();
  state.sum = r.result.rows[0].value(1).AsInt();
  return state;
}

constexpr TableState kStateA{3, 6};    // rows 1, 2, 3
constexpr TableState kStateB{6, 21};   // rows 1..6

/// Phase A: build state A and checkpoint it (never under faults).
Status BuildStateA(SimMachine* m) {
  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<WsqDatabase> db, OpenOn(m));
  WSQ_RETURN_IF_ERROR(db->Execute("CREATE TABLE T (A INT)").status());
  WSQ_RETURN_IF_ERROR(
      db->Execute("INSERT INTO T VALUES (1), (2), (3)").status());
  return db->Checkpoint();
}

/// Phase B: add rows 4..6 and checkpoint. Under an armed fault plan any
/// step may fail; the first error is returned (the caller only cares
/// whether the phase fully succeeded).
Status RunPhaseB(SimMachine* m) {
  WSQ_ASSIGN_OR_RETURN(std::unique_ptr<WsqDatabase> db, OpenOn(m));
  WSQ_RETURN_IF_ERROR(
      db->Execute("INSERT INTO T VALUES (4), (5), (6)").status());
  return db->Checkpoint();
}

/// How many fault-clock ops one full phase B consumes, measured on a
/// clean machine so the crash sweep knows its op range.
uint64_t MeasurePhaseBOps() {
  SimMachine m;
  EXPECT_TRUE(BuildStateA(&m).ok());
  uint64_t before = m.ctl.stats().ops;
  EXPECT_TRUE(RunPhaseB(&m).ok());
  return m.ctl.stats().ops - before;
}

/// The tentpole invariant: crash at op `k` of phase B (optionally with
/// a torn write), recover, and the database must read back as exactly
/// state A or state B — never a mix, never unopenable.
void SweepCrashes(int64_t torn_bytes) {
  const uint64_t phase_ops = MeasurePhaseBOps();
  ASSERT_GT(phase_ops, 5u);  // the protocol has real steps to hit

  for (uint64_t k = 1; k <= phase_ops; ++k) {
    SimMachine m;
    ASSERT_TRUE(BuildStateA(&m).ok()) << "k=" << k;

    DiskFaultPlan plan;
    plan.crash_at_op = m.ctl.stats().ops + k;
    plan.torn_bytes = torn_bytes;
    m.ctl.set_plan(plan);

    Status phase = RunPhaseB(&m);
    ASSERT_TRUE(m.ctl.stats().crashed) << "k=" << k;

    // Reboot: the un-synced state is gone; the plan is disarmed.
    m.ctl.Recover();
    m.ctl.set_plan(DiskFaultPlan{});

    auto state = ReadState(&m);
    ASSERT_TRUE(state.ok())
        << "k=" << k << ": unopenable after crash: "
        << state.status().ToString();
    ASSERT_TRUE(*state == kStateA || *state == kStateB)
        << "k=" << k << ": mixed state: count=" << state->count
        << " sum=" << state->sum;
    if (phase.ok()) {
      // The checkpoint reported success before the crash hit, so its
      // effects must have survived.
      ASSERT_TRUE(*state == kStateB) << "k=" << k;
    }

    // Recovery is stable: a second open changes nothing.
    auto again = ReadState(&m);
    ASSERT_TRUE(again.ok()) << "k=" << k;
    ASSERT_TRUE(*again == *state) << "k=" << k;
  }
}

TEST(CrashRecoveryTest, SweepEveryCrashPoint) { SweepCrashes(-1); }

TEST(CrashRecoveryTest, SweepEveryCrashPointWithTornWrites) {
  SweepCrashes(/*torn_bytes=*/1234);
}

TEST(CrashRecoveryTest, CrashAfterPhaseBLeavesStateB) {
  SimMachine m;
  ASSERT_TRUE(BuildStateA(&m).ok());
  ASSERT_TRUE(RunPhaseB(&m).ok());
  // Crash on the next mutating op, long after the checkpoint.
  DiskFaultPlan plan;
  plan.crash_at_op = m.ctl.stats().ops + 1;
  m.ctl.set_plan(plan);
  m.ctl.Recover();
  m.ctl.set_plan(DiskFaultPlan{});
  auto state = ReadState(&m);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(*state == kStateB);
}

TEST(CrashRecoveryTest, FailedOpIsRetryable) {
  SimMachine m;
  ASSERT_TRUE(BuildStateA(&m).ok());
  auto db = std::move(OpenOn(&m)).value();
  ASSERT_TRUE(db->Execute("INSERT INTO T VALUES (4), (5), (6)").ok());

  // Fail the first checkpoint op (the WAL header append); the device
  // stays up, so — unlike a crash — the very next attempt can succeed.
  DiskFaultPlan plan;
  plan.fail_at_op = m.ctl.stats().ops + 1;
  m.ctl.set_plan(plan);
  ASSERT_FALSE(db->Checkpoint().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  db.reset();

  auto state = ReadState(&m);
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(*state == kStateB);
}

TEST(CrashRecoveryTest, EveryFailedCheckpointOpIsRetryable) {
  // Like the crash sweep, but with transient per-op failures: after
  // any single failed checkpoint step, a retry must converge to B.
  const uint64_t phase_ops = MeasurePhaseBOps();
  for (uint64_t k = 1; k <= phase_ops; ++k) {
    SimMachine m;
    ASSERT_TRUE(BuildStateA(&m).ok()) << "k=" << k;
    DiskFaultPlan plan;
    plan.fail_at_op = m.ctl.stats().ops + k;
    m.ctl.set_plan(plan);

    auto db = OpenOn(&m);
    ASSERT_TRUE(db.ok()) << "k=" << k;  // open itself does no mutating op
    Status s = (*db)->Execute("INSERT INTO T VALUES (4), (5), (6)").status();
    if (s.ok()) s = (*db)->Checkpoint();
    if (!s.ok()) {
      // Retry the whole phase on the still-running machine.
      Status retry = (*db)->Execute("SELECT 1 FROM T").status();
      (void)retry;
      ASSERT_TRUE((*db)->Checkpoint().ok()) << "k=" << k;
    }
    db->reset();
    auto state = ReadState(&m);
    ASSERT_TRUE(state.ok()) << "k=" << k;
    // An insert that failed mid-statement may or may not have appended
    // rows; the durable state must still be readable and coherent
    // enough to checkpoint. When everything succeeded it must be B.
    if (s.ok()) {
      ASSERT_TRUE(*state == kStateB) << "k=" << k;
    }
  }
}

TEST(CrashRecoveryTest, BitRotSurfacesAsDataLoss) {
  SimMachine m;
  ASSERT_TRUE(BuildStateA(&m).ok());
  DiskFaultPlan plan;
  plan.read_bit_flip_rate = 1.0;  // every page read comes back damaged
  m.ctl.set_plan(plan);

  auto db = OpenOn(&m);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kDataLoss);
  EXPECT_GT(m.ctl.stats().bit_flips, 0u);

  // The rot is on the medium, not transient: reads keep failing.
  auto again = OpenOn(&m);
  EXPECT_FALSE(again.ok());
}

TEST(CrashRecoveryTest, CrashedDeviceRejectsEverything) {
  SimMachine m;
  ASSERT_TRUE(BuildStateA(&m).ok());
  DiskFaultPlan plan;
  plan.crash_at_op = m.ctl.stats().ops + 1;
  m.ctl.set_plan(plan);

  char frame[kPageSize] = {};
  ASSERT_FALSE(m.disk.WritePage(0, frame).ok());  // the crash itself
  EXPECT_TRUE(m.ctl.crashed());
  EXPECT_FALSE(m.disk.ReadPage(0, frame).ok());
  EXPECT_FALSE(m.disk.Sync().ok());
  EXPECT_FALSE(m.wal.Append("x").ok());

  m.ctl.Recover();
  m.ctl.set_plan(DiskFaultPlan{});
  EXPECT_TRUE(m.disk.ReadPage(0, frame).ok());
}

TEST(CrashRecoveryTest, UnsyncedWritesVanishOnCrash) {
  SimMachine m;
  ASSERT_TRUE(m.disk.AllocatePage().ok());
  char frame[kPageSize] = {};
  ASSERT_TRUE(m.disk.WritePage(0, frame).ok());
  EXPECT_EQ(m.disk.unsynced_pages(), 1u);
  ASSERT_TRUE(m.disk.Sync().ok());
  EXPECT_EQ(m.disk.unsynced_pages(), 0u);

  // A second write stays volatile; the crash erases it.
  frame[kPageHeaderSize] = 'v';
  ASSERT_TRUE(m.disk.WritePage(0, frame).ok());
  DiskFaultPlan plan;
  plan.crash_at_op = m.ctl.stats().ops + 1;
  m.ctl.set_plan(plan);
  ASSERT_FALSE(m.disk.WritePage(0, frame).ok());
  m.ctl.Recover();
  m.ctl.set_plan(DiskFaultPlan{});

  char in[kPageSize];
  ASSERT_TRUE(m.disk.ReadPage(0, in).ok());
  EXPECT_EQ(in[kPageHeaderSize], 0);  // the synced (empty) version
}

TEST(CrashRecoveryTest, AppendIsOneOpAndVanishesOnCrash) {
  SimMachine m;
  char frame[kPageSize] = {};
  frame[kPageHeaderSize] = 'a';
  uint64_t ops = m.ctl.stats().ops;
  auto first = m.disk.AppendPage(frame);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(m.ctl.stats().ops, ops + 1);
  EXPECT_EQ(m.disk.unsynced_pages(), 1u);
  char in[kPageSize];
  ASSERT_TRUE(m.disk.ReadPage(*first, in).ok());
  EXPECT_EQ(in[kPageHeaderSize], 'a');
  ASSERT_TRUE(m.disk.Sync().ok());

  // An append that crashes, and an earlier unsynced one, both vanish:
  // only the synced page is left.
  ASSERT_TRUE(m.disk.AppendPage(frame).ok());
  DiskFaultPlan plan;
  plan.crash_at_op = m.ctl.stats().ops + 1;
  plan.torn_bytes = 137;
  m.ctl.set_plan(plan);
  ASSERT_FALSE(m.disk.AppendPage(frame).ok());
  m.ctl.Recover();
  m.ctl.set_plan(DiskFaultPlan{});
  EXPECT_EQ(m.disk.NumPages(), *first + 1);
  ASSERT_TRUE(m.disk.ReadPage(*first, in).ok());
  EXPECT_EQ(in[kPageHeaderSize], 'a');
}

}  // namespace
}  // namespace wsq
