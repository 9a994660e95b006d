#ifndef WSQ_EXEC_SORT_AGG_OPS_H_
#define WSQ_EXEC_SORT_AGG_OPS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "plan/logical_plan.h"
#include "storage/spill.h"

namespace wsq {

/// ORDER BY: materializes the child as byte records and sorts the
/// records, not Rows.
///
/// Each input row becomes one record, [u32 key_len][ordered key]
/// [AppendSpillRow payload], copied into an arena of slabs (a record
/// never straddles two slabs). The ordered key is the concatenation of
/// AppendOrderedKey (storage/serde.h) over the sort keys, so memcmp on
/// it is the ORDER BY order. An index of {position, key prefix,
/// key_len, len} entries is sorted by (key bytes, position); records
/// are placed in input order, so the position tie-break is the
/// stable-sort tie order. A row is decoded once, when it is emitted,
/// straight into the caller's row.
///
/// Memory governance: the ledger charges what the batch holds, the
/// arena slabs plus the index capacity, one MemoryReservation charge
/// per new slab or index growth step rather than one per row. Slabs
/// double from 4 KiB up to 1/64 of the budget headroom at Open (at
/// most 1 MiB), so the batch that fills a budget leaves little of it
/// unused. When a charge fails (tier 1 of the degradation ladder), the
/// current batch is sorted and its records are written verbatim, in
/// order, as one run to a spill temp file (checksummed pages via the
/// DiskManager layer); Next() then k-way merges the runs on the key
/// bytes in each reader's buffer. Run batches partition the input in
/// order and ties prefer the lower run index, so spilled output is
/// byte-identical to the in-memory sort. Without a SpillManager in the
/// ExecContext, a failed reservation fails the query with
/// kResourceExhausted instead. Close releases every charge.
class SortOperator : public Operator {
 public:
  SortOperator(const SortNode* node, OperatorPtr child,
               ExecContext* ctx = nullptr)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)),
        ctx_(ctx) {
    AddChild(child_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

  /// Runs written to the spill file (0 = the sort fit in memory).
  size_t spill_runs() const { return runs_.size(); }

 private:
  /// One buffered record of `len` bytes, whose ordered key is the
  /// key_len bytes after the u32 header. `pos` is the slab index
  /// (high 32 bits) and the offset in the slab (low 32 bits), so pos
  /// order is input order. `prefix` caches the key's first 8 bytes so
  /// most comparisons never touch the arena.
  struct RecordRef {
    uint64_t pos;
    uint64_t prefix;
    uint32_t key_len;
    uint32_t len;
  };
  /// One arena slab.
  struct Slab {
    std::unique_ptr<char[]> data;
    size_t size;
  };
  /// What the batch must add to hold one more record: a new slab
  /// and/or more index entries.
  struct Growth {
    size_t slab_bytes = 0;
    size_t index_entries = 0;
    size_t bytes() const {
      return slab_bytes + index_entries * sizeof(RecordRef);
    }
  };

  /// Encodes `row` as one record into record_; returns its key length.
  Result<uint32_t> EncodeRecord(const Row& row);
  /// Adds record_ to the batch, charging any growth it needs first and
  /// spilling the batch when the charge fails.
  Status AddRecord(uint32_t key_len);
  Growth GrowthFor(size_t len) const;
  const char* RecordData(const RecordRef& r) const {
    return slabs_[r.pos >> 32].data.get() + static_cast<uint32_t>(r.pos);
  }
  /// Sorts index_ by (key bytes, pos).
  void SortBatch();
  /// Frees the batch's slabs and index capacity, not just their size.
  void FreeBatch();
  /// Merge-heap order: true iff source `a` emits after source `b`
  /// (greater key, or an equal key from a later run).
  bool MergeAfter(size_t a, size_t b) const;
  /// Sorts the batch, writes it as one spill run, frees it and
  /// releases its reservation. No-op on an empty batch.
  Status SpillBatch();
  /// Reads merge source `i`'s next record and pushes the source onto
  /// heap_; leaves it off the heap at end of run.
  Status AdvanceSource(size_t i);

  const SortNode* node_;
  OperatorPtr child_;
  ExecContext* ctx_ = nullptr;
  MemoryReservation mem_;
  /// Per sort key: the row position it reads when the key is a plain
  /// column reference (read in place, no Eval copy), else kNoColumn.
  std::vector<size_t> key_columns_;
  static constexpr size_t kNoColumn = static_cast<size_t>(-1);
  std::string record_;  // the record being added, reused
  std::vector<Slab> slabs_;
  size_t slab_used_ = 0;    // bytes used in slabs_.back()
  size_t arena_bytes_ = 0;  // sum of the slab sizes
  size_t slab_limit_ = 0;   // largest slab this sort allocates
  std::vector<RecordRef> index_;
  size_t next_ = 0;
  // True from the moment the child's Open is attempted until the child
  // is closed: Open() closes the child after a full drain, and if the
  // child's Open or the drain errors out, Close() must cascade so a
  // ReqSync below reaps its outstanding calls.
  bool child_open_ = false;

  struct MergeSource {
    std::unique_ptr<SpillReader> reader;
    std::string record;  // read buffer, reused; one record long
    uint32_t key_len = 0;  // of the ordered key inside `record`
    std::string_view key() const {
      return std::string_view(record).substr(sizeof(uint32_t), key_len);
    }
  };
  std::unique_ptr<SpillFile> spill_file_;
  std::vector<SpillRun> runs_;
  std::vector<MergeSource> merge_;
  /// Indexes of the sources with a record, heap-ordered by MergeAfter:
  /// front() holds the next output row.
  std::vector<size_t> heap_;
};

/// GROUP BY + aggregate evaluation; groups ordered deterministically
/// by key. NULL arguments are skipped (except COUNT(*)); a global
/// aggregate over empty input yields one row.
///
/// Memory governance: each group (key + accumulators) is charged to
/// the query budget at insertion. On a failed reservation the group
/// map — already key-sorted — is serialized as a sorted run of
/// (key, accumulators) records and cleared; at the end of the drain
/// Next() streams a k-way merge of the runs, combining accumulators of
/// equal keys, so group order (and, for integer aggregates, every
/// byte) matches the in-memory path. Floating-point SUM/AVG may
/// differ by reassociation when spilled.
class AggregateOperator : public Operator {
 public:
  AggregateOperator(const AggregateNode* node, OperatorPtr child,
                    ExecContext* ctx = nullptr)
      : Operator(&node->schema()),
        node_(node),
        child_(std::move(child)),
        ctx_(ctx) {
    AddChild(child_.get());
  }

  Status OpenImpl() override;
  Result<bool> NextImpl(Row* row) override;
  Status CloseImpl() override;

  /// Runs written to the spill file (0 = the build fit in memory).
  size_t spill_runs() const { return runs_.size(); }

 private:
  struct Accumulator {
    int64_t count = 0;       // rows seen (non-null arg for kCount)
    int64_t sum_int = 0;
    double sum_double = 0;
    bool sum_is_double = false;
    Value min;
    Value max;
    bool has_value = false;
  };

  using GroupMap = std::map<Row, std::vector<Accumulator>,
                            bool (*)(const Row&, const Row&)>;

  Status Accumulate(const Row& input, std::vector<Accumulator>* accs);
  Result<Value> Finalize(const AggregateNode::AggSpec& spec,
                         const Accumulator& acc) const;

  /// Serializes the (sorted) group map as one spill run, clears it,
  /// and releases its reservation. No-op on an empty map.
  Status SpillGroups(GroupMap* groups);
  /// Folds `from` into `into` (counts add, sums add with double
  /// widening, min/max recompare, has_value ORs).
  static void MergeAccumulator(const Accumulator& from, Accumulator* into);
  /// Merge-heap order: true iff source `a` emits after source `b`.
  bool MergeAfter(size_t a, size_t b) const;
  /// As SortOperator::AdvanceSource.
  Status AdvanceSource(size_t i);
  /// Builds the output row for one merged group.
  Result<Row> FinalizeGroup(const Row& key,
                            const std::vector<Accumulator>& accs) const;

  const AggregateNode* node_;
  OperatorPtr child_;
  ExecContext* ctx_ = nullptr;
  MemoryReservation mem_;
  std::vector<Row> results_;
  size_t next_ = 0;
  bool child_open_ = false;  // see SortOperator::child_open_

  struct MergeSource {
    std::unique_ptr<SpillReader> reader;
    std::string record;          // read buffer, reused; one record long
    std::vector<Value> payload;  // decoded accumulators, reused
    Row key;
    std::vector<Accumulator> accs;
  };
  std::unique_ptr<SpillFile> spill_file_;
  std::vector<SpillRun> runs_;
  std::vector<MergeSource> merge_;
  std::vector<size_t> heap_;  // as SortOperator::heap_
  bool merging_ = false;
};

}  // namespace wsq

#endif  // WSQ_EXEC_SORT_AGG_OPS_H_
