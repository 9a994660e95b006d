// wsqcheck-fixture: dest=src/exec/bad_unbounded_growth_out_of_class.cc expect=unbounded-op-growth:1
// The out-of-class `Foo::NextImpl` definition shape: the body buffers
// rows without ever touching the memory-budget API.
#include <vector>

namespace wsq {

struct Row {};

class BufferAll {
 public:
  bool NextImpl(Row* row);

 private:
  std::vector<Row> rows_;
};

bool BufferAll::NextImpl(Row* row) {
  rows_.push_back(*row);
  return true;
}

}  // namespace wsq
