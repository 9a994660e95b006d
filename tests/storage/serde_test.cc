#include "storage/serde.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace wsq {
namespace {

TEST(SerdeTest, RoundTripAllTypes) {
  Row row({Value::Null(), Value::Int(-7), Value::Real(3.25),
           Value::Str("hello")});
  auto bytes = SerializeRow(row);
  ASSERT_TRUE(bytes.ok());
  auto back = DeserializeRow(*bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, row);
}

TEST(SerdeTest, EmptyRow) {
  Row row;
  auto back = DeserializeRow(*SerializeRow(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 0u);
}

TEST(SerdeTest, EmptyString) {
  Row row({Value::Str("")});
  auto back = DeserializeRow(*SerializeRow(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value(0).AsString(), "");
}

TEST(SerdeTest, StringWithEmbeddedNulAndBinary) {
  std::string s("a\0b\xff", 4);
  Row row({Value::Str(s)});
  auto back = DeserializeRow(*SerializeRow(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value(0).AsString(), s);
}

TEST(SerdeTest, ExtremeNumericValues) {
  Row row({Value::Int(INT64_MIN), Value::Int(INT64_MAX),
           Value::Real(-0.0), Value::Real(1e300)});
  auto back = DeserializeRow(*SerializeRow(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->value(0).AsInt(), INT64_MIN);
  EXPECT_EQ(back->value(1).AsInt(), INT64_MAX);
  EXPECT_DOUBLE_EQ(back->value(3).AsDouble(), 1e300);
}

TEST(SerdeTest, PlaceholderRejected) {
  Row row({Value::Pending(3, 0)});
  auto bytes = SerializeRow(row);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kInternal);
}

TEST(SerdeTest, CorruptInputsRejected) {
  EXPECT_FALSE(DeserializeRow("").ok());
  EXPECT_FALSE(DeserializeRow("ab").ok());
  // Claimed arity 1 but no data.
  std::string claim("\x01\x00\x00\x00", 4);
  EXPECT_FALSE(DeserializeRow(claim).ok());
  // Valid row plus trailing garbage.
  std::string good = *SerializeRow(Row({Value::Int(1)}));
  EXPECT_FALSE(DeserializeRow(good + "x").ok());
  // Bad type tag.
  std::string bad_tag("\x01\x00\x00\x00\x63", 5);
  EXPECT_FALSE(DeserializeRow(bad_tag).ok());
}

TEST(SerdeTest, ManyColumns) {
  Row row;
  for (int i = 0; i < 200; ++i) row.Append(Value::Int(i));
  auto back = DeserializeRow(*SerializeRow(row));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, row);
}

// --- AppendOrderedKey: checked against Value::Compare, not against the
// Sort operator (both Sort paths use the codec, so comparing them would
// not test it).

int Sign(int c) { return (c > 0) - (c < 0); }

std::string OrderedKey(const Value& v, bool descending) {
  std::string out;
  Status st = AppendOrderedKey(v, descending, &out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// An INT64 that a double cannot hold exactly: Compare rounds it to
/// the nearest double against a DOUBLE, the codec keeps it exact.
bool IsWideInt(const Value& v) {
  constexpr int64_t k2p53 = int64_t{1} << 53;
  return v.is_int() && (v.AsInt() > k2p53 || v.AsInt() < -k2p53);
}

/// Every edge the codec must order: NULL, ±0.0, ±inf, the int64 ends,
/// ints around ±2^53 and 2^63, int/double ties, empty strings, embedded
/// NULs, bytes >= 0x80 and prefix pairs, plus seeded random values.
std::vector<Value> OrderedKeyCorpus() {
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t k2p53 = int64_t{1} << 53;
  std::vector<Value> vals = {
      Value::Null(),
      Value::Int(0), Value::Int(1), Value::Int(-1), Value::Int(5),
      Value::Int(-5), Value::Int(kMin), Value::Int(kMin + 1),
      Value::Int(kMax), Value::Int(kMax - 1), Value::Int(kMax - 511),
      Value::Int(kMax - 512), Value::Int(kMax - 1024),
      Value::Int(int64_t{1} << 62), Value::Int((int64_t{1} << 62) + 1),
      Value::Int(k2p53 - 1), Value::Int(k2p53), Value::Int(k2p53 + 1),
      Value::Int(k2p53 + 2), Value::Int(k2p53 + 3), Value::Int(-k2p53 + 1),
      Value::Int(-k2p53), Value::Int(-k2p53 - 1), Value::Int(-k2p53 - 2),
      Value::Int(-k2p53 - 3),
      Value::Real(0.0), Value::Real(-0.0), Value::Real(5.0),
      Value::Real(-5.0), Value::Real(0.5), Value::Real(-0.5),
      Value::Real(5.000000000000001), Value::Real(inf), Value::Real(-inf),
      Value::Real(std::numeric_limits<double>::denorm_min()),
      Value::Real(-std::numeric_limits<double>::denorm_min()),
      Value::Real(std::numeric_limits<double>::max()),
      Value::Real(std::numeric_limits<double>::lowest()),
      Value::Real(0x1p53), Value::Real(0x1p53 + 2), Value::Real(-0x1p53),
      Value::Real(0x1p62), Value::Real(0x1p63), Value::Real(-0x1p63),
      Value::Real(0x1p64),
      Value::Str(""), Value::Str("a"), Value::Str("ab"), Value::Str("b"),
      Value::Str(std::string("\0", 1)), Value::Str(std::string("\0\0", 2)),
      Value::Str(std::string("a\0", 2)), Value::Str(std::string("a\0b", 3)),
      Value::Str(std::string("a\0\0", 3)), Value::Str("a\x01"),
      Value::Str("a\xff"), Value::Str("\x80"), Value::Str("\xff"),
      Value::Str("\xff\xff"), Value::Str("\x7f"),
  };
  Rng rng(20261019);
  const char alphabet[] = {'\0', '\x01', 'a', '\x7f', '\x80', '\xff'};
  for (int i = 0; i < 120; ++i) {
    std::string s;
    for (uint64_t n = rng.Uniform(5); n > 0; --n) {
      s.push_back(alphabet[rng.Uniform(sizeof(alphabet))]);
    }
    vals.push_back(Value::Str(s));
  }
  for (int i = 0; i < 60; ++i) {
    // Ints of every magnitude, and doubles near them so that cross-type
    // ties and near-ties occur.
    int64_t v = static_cast<int64_t>(rng.Next() >> rng.Uniform(64));
    if (rng.Bernoulli(0.5)) v = -v;
    vals.push_back(Value::Int(v));
    vals.push_back(Value::Real(static_cast<double>(v)));
    vals.push_back(Value::Real((rng.NextDouble() - 0.5) * 200.0));
  }
  return vals;
}

TEST(OrderedKeyTest, MemcmpOrderMatchesValueCompare) {
  std::vector<Value> vals = OrderedKeyCorpus();
  size_t checked = 0;
  for (bool desc : {false, true}) {
    std::vector<std::string> enc;
    for (const Value& v : vals) enc.push_back(OrderedKey(v, desc));
    for (size_t i = 0; i < vals.size(); ++i) {
      for (size_t j = 0; j < vals.size(); ++j) {
        int c = Sign(vals[i].Compare(vals[j]));
        int m = Sign(enc[i].compare(enc[j]));
        if (c != 0) {
          ASSERT_EQ(m, desc ? -c : c)
              << vals[i].ToString() << " vs " << vals[j].ToString()
              << (desc ? " DESC" : " ASC");
          ++checked;
        } else if (!IsWideInt(vals[i]) && !IsWideInt(vals[j])) {
          ASSERT_EQ(enc[i], enc[j])
              << vals[i].ToString() << " vs " << vals[j].ToString();
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

TEST(OrderedKeyTest, ConcatenatedKeysOrderLexicographically) {
  // Prefix-freedom: a two-key concatenation must order by the first key,
  // then the second, for every direction pair.
  std::vector<Value> vals = OrderedKeyCorpus();
  Rng rng(7);
  for (int iter = 0; iter < 40000; ++iter) {
    const Value& a1 = vals[rng.Uniform(vals.size())];
    const Value& a2 = vals[rng.Uniform(vals.size())];
    const Value& b1 = rng.Bernoulli(0.3) ? a1 : vals[rng.Uniform(vals.size())];
    const Value& b2 = vals[rng.Uniform(vals.size())];
    if (IsWideInt(a1) || IsWideInt(b1)) continue;
    bool d1 = rng.Bernoulli(0.5);
    bool d2 = rng.Bernoulli(0.5);
    int c = Sign(a1.Compare(b1));
    if (d1) c = -c;
    if (c == 0) c = d2 ? -Sign(a2.Compare(b2)) : Sign(a2.Compare(b2));
    if (c == 0) continue;
    std::string ka = OrderedKey(a1, d1) + OrderedKey(a2, d2);
    std::string kb = OrderedKey(b1, d1) + OrderedKey(b2, d2);
    ASSERT_EQ(Sign(ka.compare(kb)), c)
        << a1.ToString() << "," << a2.ToString() << " vs " << b1.ToString()
        << "," << b2.ToString() << " desc=" << d1 << d2;
  }
}

TEST(OrderedKeyTest, IntAndDoubleTiesEncodeEqually) {
  EXPECT_EQ(OrderedKey(Value::Int(5), false),
            OrderedKey(Value::Real(5.0), false));
  EXPECT_EQ(OrderedKey(Value::Int(-5), true),
            OrderedKey(Value::Real(-5.0), true));
  EXPECT_EQ(OrderedKey(Value::Real(-0.0), false),
            OrderedKey(Value::Real(0.0), false));
  EXPECT_EQ(OrderedKey(Value::Int(0), false),
            OrderedKey(Value::Real(-0.0), false));
  const int64_t k2p53 = int64_t{1} << 53;
  EXPECT_EQ(OrderedKey(Value::Int(k2p53), false),
            OrderedKey(Value::Real(0x1p53), false));
  // Beyond 2^53 ints keep their exact order, where doubles cannot.
  EXPECT_LT(OrderedKey(Value::Int(k2p53), false),
            OrderedKey(Value::Int(k2p53 + 1), false));
  EXPECT_LT(OrderedKey(Value::Int(std::numeric_limits<int64_t>::max() - 1),
                       false),
            OrderedKey(Value::Int(std::numeric_limits<int64_t>::max()),
                       false));
}

TEST(OrderedKeyTest, NanSortsAfterInfinityAsOneValue) {
  // Value::Compare treats NaN as equal to everything, so it has no order
  // to keep; the codec gives every NaN one place: after +inf and before
  // strings. DESC reverses that, so NaN comes first among numerics.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (bool desc : {false, true}) {
    std::string k_nan = OrderedKey(Value::Real(nan), desc);
    EXPECT_EQ(k_nan, OrderedKey(Value::Real(-nan), desc));
    EXPECT_EQ(k_nan, OrderedKey(Value::Real(std::nan("7")), desc));
    std::string k_inf = OrderedKey(Value::Real(inf), desc);
    std::string k_max =
        OrderedKey(Value::Int(std::numeric_limits<int64_t>::max()), desc);
    std::string k_str = OrderedKey(Value::Str(""), desc);
    std::string k_null = OrderedKey(Value::Null(), desc);
    if (!desc) {
      EXPECT_GT(k_nan, k_inf);
      EXPECT_GT(k_nan, k_max);
      EXPECT_LT(k_nan, k_str);
      EXPECT_GT(k_nan, k_null);
    } else {
      EXPECT_LT(k_nan, k_inf);
      EXPECT_LT(k_nan, k_max);
      EXPECT_GT(k_nan, k_str);
      EXPECT_LT(k_nan, k_null);
    }
  }
}

TEST(OrderedKeyTest, PlaceholderRejected) {
  std::string out = "keep";
  Status st = AppendOrderedKey(Value::Pending(3, 1), false, &out);
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
}

}  // namespace
}  // namespace wsq
