#include "exec/sort_agg_ops.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "expr/expr.h"
#include "storage/serde.h"

namespace wsq {

namespace {

/// Approximate footprint of one group entry. The container-node
/// constant keeps the ledger honest about bookkeeping overhead without
/// per-allocator precision.
constexpr size_t kEntryOverhead = 64;

/// One Aggregate spill record: [u32 key_len][key blob][payload blob].
/// The key blob (the group key row) is decoded for merge ordering
/// without re-evaluating any expression; the payload is the flattened
/// accumulators. Built in `*record`, whose capacity is reused across
/// the records of a run.
void EncodeSpillRecord(std::span<const Value> keys,
                       std::span<const Value> payload,
                       std::string* record) {
  record->assign(4, '\0');
  AppendSpillRow(keys, record);
  uint32_t klen = static_cast<uint32_t>(record->size() - 4);
  std::memcpy(record->data(), &klen, 4);
  AppendSpillRow(payload, record);
}

Status DecodeSpillRecord(std::string_view record, std::vector<Value>* keys,
                         std::vector<Value>* payload) {
  if (record.size() < 4) {
    return Status::DataLoss("spill record truncated: missing key length");
  }
  uint32_t klen;
  std::memcpy(&klen, record.data(), 4);
  record.remove_prefix(4);
  if (record.size() < klen) {
    return Status::DataLoss("spill record truncated: key past end");
  }
  WSQ_RETURN_IF_ERROR(DeserializeSpillRow(record.substr(0, klen), keys));
  return DeserializeSpillRow(record.substr(klen), payload);
}

}  // namespace

// --- SortOperator ---

namespace {

/// The u32 key length that heads every Sort record.
constexpr size_t kKeyLenBytes = sizeof(uint32_t);

/// The first 8 bytes of an ordered key as a big-endian integer, zero
/// padded: unequal prefixes order as memcmp orders the full keys.
uint64_t KeyPrefix(const char* key, size_t key_len) {
  unsigned char bytes[8] = {};
  std::memcpy(bytes, key, std::min<size_t>(key_len, sizeof(bytes)));
  uint64_t prefix = 0;
  for (unsigned char b : bytes) prefix = (prefix << 8) | b;
  return prefix;
}

/// Arena slabs double from kFirstSlabBytes up to the sort's slab
/// limit: 1/kSlabsPerBudget of the budget headroom at Open, between
/// kMinSlabLimit and kMaxSlabLimit bytes. A tiny budget thus gets tiny
/// slabs, charged about once per row.
constexpr size_t kFirstSlabBytes = 4096;
constexpr size_t kMinSlabLimit = 64;
constexpr size_t kMaxSlabLimit = size_t{1} << 20;
constexpr size_t kSlabsPerBudget = 64;

/// Decodes the payload of a Sort record whose key is `key_len` bytes
/// into the caller's row: the one place a buffered row becomes a Row
/// again.
Status DecodeSortPayload(std::string_view record, size_t key_len,
                         Row* row) {
  return DeserializeSpillRow(record.substr(kKeyLenBytes + key_len),
                             row->mutable_values());
}

}  // namespace

Result<uint32_t> SortOperator::EncodeRecord(const Row& row) {
  record_.assign(kKeyLenBytes, '\0');
  const auto& keys = node_->keys();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (key_columns_[i] < row.size()) {
      WSQ_RETURN_IF_ERROR(AppendOrderedKey(row.value(key_columns_[i]),
                                           keys[i].descending, &record_));
    } else {
      // Computed key (or a column past the row: Eval reports it).
      WSQ_ASSIGN_OR_RETURN(Value v, keys[i].expr->Eval(row));
      WSQ_RETURN_IF_ERROR(
          AppendOrderedKey(v, keys[i].descending, &record_));
    }
  }
  const uint32_t key_len =
      static_cast<uint32_t>(record_.size() - kKeyLenBytes);
  std::memcpy(record_.data(), &key_len, kKeyLenBytes);
  AppendSpillRow(row.values(), &record_);
  return key_len;
}

SortOperator::Growth SortOperator::GrowthFor(size_t len) const {
  Growth g;
  auto step = [this](size_t held) {
    return std::min(slab_limit_, std::max(held, kFirstSlabBytes));
  };
  if (slabs_.empty() || slabs_.back().size - slab_used_ < len) {
    g.slab_bytes = std::max(len, step(arena_bytes_));
  }
  if (index_.size() == index_.capacity()) {
    g.index_entries = std::max<size_t>(
        1, step(index_.capacity() * sizeof(RecordRef)) / sizeof(RecordRef));
  }
  return g;
}

Status SortOperator::AddRecord(uint32_t key_len) {
  const size_t len = record_.size();
  Growth g = GrowthFor(len);
  if (g.bytes() > 0 && !mem_.TryAdd(g.bytes())) {
    // Tier 1: degrade to external sort instead of dying. The batch
    // spilled is everything before this record, which then starts the
    // next batch.
    WSQ_RETURN_IF_ERROR(SpillBatch());
    g = GrowthFor(len);
    if (!mem_.TryAdd(g.bytes())) {
      // Not even one slab fits (a single row larger than the whole
      // budget): admit it as a tracked overage rather than deadlocking
      // on an empty batch.
      mem_.ForceAdd(g.bytes());
    }
  }
  if (g.slab_bytes > 0) {
    slabs_.push_back(
        {std::unique_ptr<char[]>(new char[g.slab_bytes]), g.slab_bytes});
    arena_bytes_ += g.slab_bytes;
    slab_used_ = 0;
  }
  if (g.index_entries > 0) {
    index_.reserve(index_.capacity() + g.index_entries);
  }
  std::memcpy(slabs_.back().data.get() + slab_used_, record_.data(), len);
  const uint64_t pos = (uint64_t{slabs_.size() - 1} << 32) | slab_used_;
  slab_used_ += len;
  index_.push_back({pos, KeyPrefix(record_.data() + kKeyLenBytes, key_len),
                    key_len, static_cast<uint32_t>(len)});
  return Status::OK();
}

void SortOperator::SortBatch() {
  std::sort(index_.begin(), index_.end(),
            [this](const RecordRef& a, const RecordRef& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              std::string_view ka(RecordData(a) + kKeyLenBytes, a.key_len);
              std::string_view kb(RecordData(b) + kKeyLenBytes, b.key_len);
              int c = ka.compare(kb);
              return c != 0 ? c < 0 : a.pos < b.pos;
            });
}

void SortOperator::FreeBatch() {
  slabs_.clear();
  slab_used_ = 0;
  arena_bytes_ = 0;
  std::vector<RecordRef>().swap(index_);
}

bool SortOperator::MergeAfter(size_t a, size_t b) const {
  int c = merge_[a].key().compare(merge_[b].key());
  return c != 0 ? c > 0 : a > b;
}

Status SortOperator::SpillBatch() {
  if (index_.empty()) return Status::OK();
  if (ctx_ == nullptr || ctx_->spill == nullptr) {
    return Status::ResourceExhausted(
        "sort: memory budget exhausted and spilling is unavailable");
  }
  SortBatch();
  if (spill_file_ == nullptr) {
    WSQ_ASSIGN_OR_RETURN(spill_file_, ctx_->spill->Create());
  }
  SpillWriter writer(spill_file_.get());
  for (const RecordRef& r : index_) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_RETURN_IF_ERROR(
        writer.Append(std::string_view(RecordData(r), r.len)));
  }
  WSQ_ASSIGN_OR_RETURN(SpillRun run, writer.Finish());
  runs_.push_back(run);
  // The point of the spill is to give the bytes back.
  FreeBatch();
  mem_.ReleaseAll();
  CountSpill(run.bytes, 1);
  if (ctx_ != nullptr) {
    ctx_->stats.spilled_bytes += run.bytes;
    ++ctx_->stats.spill_runs;
  }
  if (tracer() != nullptr) {
    tracer()->Event("op", "spill",
                    StrFormat("%s run=%zu records=%llu bytes=%llu",
                              label().c_str(), runs_.size() - 1,
                              (unsigned long long)run.records,
                              (unsigned long long)run.bytes));
  }
  return Status::OK();
}

Status SortOperator::AdvanceSource(size_t i) {
  MergeSource& src = merge_[i];
  WSQ_ASSIGN_OR_RETURN(bool more, src.reader->Next(&src.record));
  if (!more) return Status::OK();
  if (src.record.size() < kKeyLenBytes) {
    return Status::DataLoss("spill record truncated: missing key length");
  }
  std::memcpy(&src.key_len, src.record.data(), kKeyLenBytes);
  if (src.record.size() - kKeyLenBytes < src.key_len) {
    return Status::DataLoss("spill record truncated: key past end");
  }
  heap_.push_back(i);
  std::push_heap(heap_.begin(), heap_.end(), [this](size_t a, size_t b) {
    return MergeAfter(a, b);
  });
  return Status::OK();
}

Status SortOperator::OpenImpl() {
  FreeBatch();
  runs_.clear();
  merge_.clear();
  heap_.clear();
  spill_file_.reset();
  next_ = 0;
  mem_.ReleaseAll();
  if (ctx_ != nullptr) mem_.Bind(ctx_->memory);
  const size_t headroom = mem_.budget() != nullptr
                              ? mem_.budget()->Available()
                              : std::numeric_limits<size_t>::max();
  slab_limit_ = std::clamp(headroom / kSlabsPerBudget, kMinSlabLimit,
                           kMaxSlabLimit);
  key_columns_.clear();
  for (const SortNode::SortKey& k : node_->keys()) {
    key_columns_.push_back(
        k.expr->kind() == BoundExpr::Kind::kColumnRef
            ? static_cast<const BoundColumnRef&>(*k.expr).index()
            : kNoColumn);
  }
  child_open_ = true;
  WSQ_RETURN_IF_ERROR(child_->Open());

  // Materialize one record per row into the slab arena.
  Row row;
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&row));
    if (!more) break;
    WSQ_ASSIGN_OR_RETURN(uint32_t key_len, EncodeRecord(row));
    WSQ_RETURN_IF_ERROR(AddRecord(key_len));
  }
  child_open_ = false;
  WSQ_RETURN_IF_ERROR(child_->Close());

  if (runs_.empty()) {
    // Everything fit: NextImpl decodes the records in index order.
    SortBatch();
    RecordPeakBytes(mem_.peak_bytes());
    return Status::OK();
  }

  // Spilled: flush the tail batch and open one merge source per run.
  WSQ_RETURN_IF_ERROR(SpillBatch());
  merge_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    merge_[i].reader =
        std::make_unique<SpillReader>(spill_file_.get(), runs_[i]);
    WSQ_RETURN_IF_ERROR(AdvanceSource(i));
  }
  if (tracer() != nullptr) {
    tracer()->Event("op", "merge",
                    StrFormat("%s runs=%zu", label().c_str(),
                              runs_.size()));
  }
  RecordPeakBytes(mem_.peak_bytes());
  return Status::OK();
}

Result<bool> SortOperator::NextImpl(Row* row) {
  if (merge_.empty()) {
    if (next_ >= index_.size()) return false;
    const RecordRef& r = index_[next_++];
    WSQ_RETURN_IF_ERROR(DecodeSortPayload(
        std::string_view(RecordData(r), r.len), r.key_len, row));
    return true;
  }
  WSQ_RETURN_IF_ERROR(CheckAlive());
  // K-way merge, smallest key first; ties go to the lowest run index
  // (runs partition the input in order, so this preserves the stable
  // sort's tie order exactly).
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), [this](size_t a, size_t b) {
    return MergeAfter(a, b);
  });
  size_t best = heap_.back();
  heap_.pop_back();
  WSQ_RETURN_IF_ERROR(DecodeSortPayload(merge_[best].record,
                                        merge_[best].key_len, row));
  WSQ_RETURN_IF_ERROR(AdvanceSource(best));
  return true;
}

Status SortOperator::CloseImpl() {
  FreeBatch();
  record_ = std::string();
  merge_.clear();
  heap_.clear();
  runs_.clear();
  spill_file_.reset();
  mem_.ReleaseAll();
  if (child_open_) {
    child_open_ = false;
    return child_->Close();
  }
  return Status::OK();
}

// --- AggregateOperator ---

Status AggregateOperator::Accumulate(const Row& input,
                                     std::vector<Accumulator>* accs) {
  const auto& specs = node_->aggs();
  for (size_t i = 0; i < specs.size(); ++i) {
    Accumulator& acc = (*accs)[i];
    if (specs[i].func == AggFunc::kCountStar) {
      ++acc.count;
      continue;
    }
    WSQ_ASSIGN_OR_RETURN(Value v, specs[i].arg->Eval(input));
    if (v.is_null()) continue;  // aggregates skip NULLs
    if (v.is_placeholder()) {
      return Status::ExecutionError(
          "aggregate over an incomplete (placeholder) value");
    }
    ++acc.count;
    switch (specs[i].func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (!v.is_numeric()) {
          return Status::TypeError("SUM/AVG require numeric input");
        }
        if (v.is_double() || acc.sum_is_double) {
          if (!acc.sum_is_double) {
            acc.sum_double = static_cast<double>(acc.sum_int);
            acc.sum_is_double = true;
          }
          acc.sum_double += v.NumericAsDouble();
        } else {
          acc.sum_int += v.AsInt();
        }
        break;
      case AggFunc::kMin:
        if (!acc.has_value || v.Compare(acc.min) < 0) acc.min = v;
        break;
      case AggFunc::kMax:
        if (!acc.has_value || v.Compare(acc.max) > 0) acc.max = v;
        break;
      case AggFunc::kCountStar:
        break;
    }
    acc.has_value = true;
  }
  return Status::OK();
}

Result<Value> AggregateOperator::Finalize(
    const AggregateNode::AggSpec& spec, const Accumulator& acc) const {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(acc.count);
    case AggFunc::kSum:
      if (acc.count == 0) return Value::Null();
      return acc.sum_is_double ? Value::Real(acc.sum_double)
                               : Value::Int(acc.sum_int);
    case AggFunc::kAvg: {
      if (acc.count == 0) return Value::Null();
      double total = acc.sum_is_double
                         ? acc.sum_double
                         : static_cast<double>(acc.sum_int);
      return Value::Real(total / static_cast<double>(acc.count));
    }
    case AggFunc::kMin:
      return acc.has_value ? acc.min : Value::Null();
    case AggFunc::kMax:
      return acc.has_value ? acc.max : Value::Null();
  }
  return Status::Internal("unknown aggregate function");
}

// Spill payload layout: 7 values per aggregate — count, sum_int,
// sum_double, sum_is_double, has_value, min, max. min/max ride as
// plain Values (Null when the accumulator never saw one).
Status AggregateOperator::SpillGroups(GroupMap* groups) {
  if (groups->empty()) return Status::OK();
  if (ctx_ == nullptr || ctx_->spill == nullptr) {
    return Status::ResourceExhausted(
        "aggregate: memory budget exhausted and spilling is unavailable");
  }
  if (spill_file_ == nullptr) {
    WSQ_ASSIGN_OR_RETURN(spill_file_, ctx_->spill->Create());
  }
  SpillWriter writer(spill_file_.get());
  std::vector<Value> payload;
  std::string record;
  for (const auto& [key, accs] : *groups) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    payload.clear();
    for (const Accumulator& acc : accs) {
      payload.push_back(Value::Int(acc.count));
      payload.push_back(Value::Int(acc.sum_int));
      payload.push_back(Value::Real(acc.sum_double));
      payload.push_back(Value::Int(acc.sum_is_double ? 1 : 0));
      payload.push_back(Value::Int(acc.has_value ? 1 : 0));
      payload.push_back(acc.min);
      payload.push_back(acc.max);
    }
    EncodeSpillRecord(key.values(), payload, &record);
    WSQ_RETURN_IF_ERROR(writer.Append(record));
  }
  WSQ_ASSIGN_OR_RETURN(SpillRun run, writer.Finish());
  runs_.push_back(run);
  groups->clear();
  mem_.ReleaseAll();
  CountSpill(run.bytes, 1);
  if (ctx_ != nullptr) {
    ctx_->stats.spilled_bytes += run.bytes;
    ++ctx_->stats.spill_runs;
  }
  if (tracer() != nullptr) {
    tracer()->Event("op", "spill",
                    StrFormat("%s run=%zu records=%llu bytes=%llu",
                              label().c_str(), runs_.size() - 1,
                              (unsigned long long)run.records,
                              (unsigned long long)run.bytes));
  }
  return Status::OK();
}

void AggregateOperator::MergeAccumulator(const Accumulator& from,
                                         Accumulator* into) {
  into->count += from.count;
  if (into->sum_is_double || from.sum_is_double) {
    double total =
        (into->sum_is_double ? into->sum_double
                             : static_cast<double>(into->sum_int)) +
        (from.sum_is_double ? from.sum_double
                            : static_cast<double>(from.sum_int));
    into->sum_double = total;
    into->sum_is_double = true;
  } else {
    into->sum_int += from.sum_int;
  }
  if (from.has_value) {
    if (!into->has_value) {
      into->min = from.min;
      into->max = from.max;
    } else {
      if (from.min.Compare(into->min) < 0) into->min = from.min;
      if (from.max.Compare(into->max) > 0) into->max = from.max;
    }
    into->has_value = true;
  }
}

bool AggregateOperator::MergeAfter(size_t a, size_t b) const {
  int c = merge_[a].key.Compare(merge_[b].key);
  return c != 0 ? c > 0 : a > b;
}

Status AggregateOperator::AdvanceSource(size_t i) {
  MergeSource& src = merge_[i];
  WSQ_ASSIGN_OR_RETURN(bool more, src.reader->Next(&src.record));
  if (!more) return Status::OK();
  std::vector<Value> key;
  WSQ_RETURN_IF_ERROR(DecodeSpillRecord(src.record, &key, &src.payload));
  size_t naggs = node_->aggs().size();
  if (src.payload.size() != naggs * 7) {
    return Status::DataLoss("spill record has wrong accumulator arity");
  }
  src.key = Row(std::move(key));
  src.accs.assign(naggs, Accumulator{});
  for (size_t a = 0; a < naggs; ++a) {
    Value* vals = &src.payload[a * 7];
    Accumulator& acc = src.accs[a];
    acc.count = vals[0].AsInt();
    acc.sum_int = vals[1].AsInt();
    acc.sum_double = vals[2].AsDouble();
    acc.sum_is_double = vals[3].AsInt() != 0;
    acc.has_value = vals[4].AsInt() != 0;
    acc.min = std::move(vals[5]);
    acc.max = std::move(vals[6]);
  }
  heap_.push_back(i);
  std::push_heap(heap_.begin(), heap_.end(), [this](size_t a, size_t b) {
    return MergeAfter(a, b);
  });
  return Status::OK();
}

Result<Row> AggregateOperator::FinalizeGroup(
    const Row& key, const std::vector<Accumulator>& accs) const {
  Row out = key;
  for (size_t i = 0; i < node_->aggs().size(); ++i) {
    WSQ_ASSIGN_OR_RETURN(Value v, Finalize(node_->aggs()[i], accs[i]));
    out.Append(std::move(v));
  }
  return out;
}

Status AggregateOperator::OpenImpl() {
  results_.clear();
  runs_.clear();
  merge_.clear();
  heap_.clear();
  spill_file_.reset();
  merging_ = false;
  next_ = 0;
  mem_.ReleaseAll();
  if (ctx_ != nullptr) mem_.Bind(ctx_->memory);
  child_open_ = true;  // see SortOperator::child_open_
  WSQ_RETURN_IF_ERROR(child_->Open());

  // Group rows by key; std::map keeps deterministic group order.
  GroupMap groups(
      +[](const Row& a, const Row& b) { return a.Compare(b) < 0; });

  Row input;
  bool any_input = false;
  while (true) {
    WSQ_RETURN_IF_ERROR(CheckAlive());
    WSQ_ASSIGN_OR_RETURN(bool more, child_->Next(&input));
    if (!more) break;
    any_input = true;
    Row key;
    for (const BoundExprPtr& g : node_->group_by()) {
      WSQ_ASSIGN_OR_RETURN(Value v, g->Eval(input));
      key.Append(std::move(v));
    }
    size_t delta = key.ApproxBytes() +
                   node_->aggs().size() * sizeof(Accumulator) +
                   kEntryOverhead;
    auto it = groups.find(key);
    if (it == groups.end()) {
      if (!mem_.TryAdd(delta)) {
        // Tier 1: flush the sorted group map as a run and start fresh.
        WSQ_RETURN_IF_ERROR(SpillGroups(&groups));
        if (!mem_.TryAdd(delta)) mem_.ForceAdd(delta);
      }
      it = groups
               .try_emplace(std::move(key), node_->aggs().size(),
                            Accumulator{})
               .first;
    }
    WSQ_RETURN_IF_ERROR(Accumulate(input, &it->second));
  }
  child_open_ = false;
  WSQ_RETURN_IF_ERROR(child_->Close());

  // Global aggregate over empty input still yields one row.
  if (!any_input && node_->group_by().empty()) {
    groups.try_emplace(Row(), node_->aggs().size(), Accumulator{});
  }

  if (runs_.empty()) {
    for (const auto& [key, accs] : groups) {
      WSQ_ASSIGN_OR_RETURN(Row out, FinalizeGroup(key, accs));
      results_.push_back(std::move(out));
    }
    RecordPeakBytes(mem_.peak_bytes());
    return Status::OK();
  }

  // Spilled: flush the remaining groups and stream-merge the runs from
  // Next(). Runs are key-sorted (std::map order), so the merged group
  // order is identical to the in-memory path.
  WSQ_RETURN_IF_ERROR(SpillGroups(&groups));
  merging_ = true;
  merge_.resize(runs_.size());
  for (size_t i = 0; i < runs_.size(); ++i) {
    merge_[i].reader =
        std::make_unique<SpillReader>(spill_file_.get(), runs_[i]);
    WSQ_RETURN_IF_ERROR(AdvanceSource(i));
  }
  if (tracer() != nullptr) {
    tracer()->Event("op", "merge",
                    StrFormat("%s runs=%zu", label().c_str(),
                              runs_.size()));
  }
  RecordPeakBytes(mem_.peak_bytes());
  return Status::OK();
}

Result<bool> AggregateOperator::NextImpl(Row* row) {
  if (!merging_) {
    if (next_ >= results_.size()) return false;
    *row = results_[next_++];
    return true;
  }
  WSQ_RETURN_IF_ERROR(CheckAlive());
  // Smallest key across the sources; every source holding an equal key
  // folds its accumulators in and advances (a group may span runs, and
  // each run holds a key at most once). Equal keys pop in run order,
  // so the fold order is fixed.
  auto after = [this](size_t a, size_t b) { return MergeAfter(a, b); };
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), after);
  size_t best = heap_.back();
  heap_.pop_back();
  Row key = std::move(merge_[best].key);
  std::vector<Accumulator> accs = std::move(merge_[best].accs);
  WSQ_RETURN_IF_ERROR(AdvanceSource(best));
  while (!heap_.empty() && merge_[heap_.front()].key.Compare(key) == 0) {
    std::pop_heap(heap_.begin(), heap_.end(), after);
    size_t i = heap_.back();
    heap_.pop_back();
    for (size_t a = 0; a < accs.size(); ++a) {
      MergeAccumulator(merge_[i].accs[a], &accs[a]);
    }
    WSQ_RETURN_IF_ERROR(AdvanceSource(i));
  }
  WSQ_ASSIGN_OR_RETURN(*row, FinalizeGroup(key, accs));
  return true;
}

Status AggregateOperator::CloseImpl() {
  results_.clear();
  merge_.clear();
  heap_.clear();
  runs_.clear();
  spill_file_.reset();
  merging_ = false;
  mem_.ReleaseAll();
  if (child_open_) {
    child_open_ = false;
    return child_->Close();
  }
  return Status::OK();
}

}  // namespace wsq
