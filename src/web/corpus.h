#ifndef WSQ_WEB_CORPUS_H_
#define WSQ_WEB_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "web/document.h"

namespace wsq {

/// A named phrase to plant in the corpus; `weight` scales how often it
/// is mentioned relative to other entities (any positive scale).
struct EntitySpec {
  std::string phrase;
  double weight = 1.0;
};

/// Requests that `a` appear NEAR `b` (and optionally NEAR `c`) in a
/// share of documents proportional to `weight` — this is how the
/// synthetic Web gets the paper's "Colorado near four corners" signal
/// (§3.1 Query 3) and the DSQ state/movie/phrase triples (§1).
struct CooccurrenceSpec {
  std::string a;
  std::string b;
  double weight = 1.0;
  /// Optional third phrase planted NEAR `b` (empty = pair only). The
  /// default member initializer lets pair specs omit it without
  /// tripping -Wmissing-field-initializers.
  std::string c{};
};

struct CorpusConfig {
  /// Number of documents to generate.
  size_t num_documents = 20000;
  /// Token count per document is uniform in [min, max].
  size_t min_doc_length = 40;
  size_t max_doc_length = 200;
  /// Background vocabulary: synthetic words drawn Zipf(zipf_skew).
  size_t vocab_size = 4000;
  double zipf_skew = 1.05;
  /// Per-document entity injection: up to `max_entity_mentions` rounds,
  /// each happening with probability `entity_rate`.
  double entity_rate = 0.55;
  int max_entity_mentions = 3;
  /// Fraction of documents that realize one co-occurrence spec.
  double cooc_rate = 0.08;
  /// Tokens within which NEAR co-occurrences are planted.
  size_t near_window = 6;
  uint64_t seed = 42;
};

/// A deterministic synthetic Web: documents with Zipf background text
/// and planted entity mentions / co-occurrences.
///
/// This substitutes for the live 1999 Web crawled by AltaVista/Google
/// (see DESIGN.md §2): it supplies what WSQ actually consumes — skewed
/// mention counts, NEAR co-occurrence structure, and stable URLs.
class Corpus {
 public:
  /// Generates a corpus. Entity phrases are tokenized with the same
  /// normalization as queries, so lookups match exactly.
  static Corpus Generate(
      const CorpusConfig& config,
      const std::vector<EntitySpec>& entities,
      const std::vector<CooccurrenceSpec>& cooccurrences = {});

  /// The slice of `full` owned by shard `shard` of `num_shards`:
  /// documents keep their dense DocIds (so per-shard scores and ranks
  /// merge byte-identically with the unsharded engine), but docs owned
  /// by other shards are blanked — no terms, so they produce no
  /// postings and match nothing. Ownership is ShardOf(id, num_shards),
  /// a seed-independent hash, so the union over all shards is exactly
  /// `full` and the slices are pairwise disjoint.
  static Corpus ShardSlice(const Corpus& full, size_t shard,
                           size_t num_shards);

  /// Which shard owns document `id` under `num_shards`-way hash
  /// partitioning (SplitMix64 finalizer of the id, mod N).
  static size_t ShardOf(DocId id, size_t num_shards);

  size_t size() const { return documents_.size(); }
  const Document& document(DocId id) const { return documents_[id]; }
  const std::vector<Document>& documents() const { return documents_; }

  /// The background vocabulary (for tests and workload generators).
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }

 private:
  std::vector<Document> documents_;
  std::vector<std::string> vocabulary_;
};

/// Builds the `n`-word synthetic background vocabulary used by
/// Corpus::Generate; exposed for tests and workload constant pools.
std::vector<std::string> MakeSyntheticVocabulary(size_t n, uint64_t seed);

}  // namespace wsq

#endif  // WSQ_WEB_CORPUS_H_
