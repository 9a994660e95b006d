// wsqcheck-fixture: dest=src/net/bad_cancel_blind_drain.cc expect=cancel-blind-wait:1
// A drain loop parked in an untimed Wait with no token or shutdown flag
// anywhere in the function.
#include "common/thread_annotations.h"

namespace wsq {

class Parked {
 public:
  void Drain() {
    MutexLock lock(&mu_);
    while (pending_ != 0) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int pending_ WSQ_GUARDED_BY(mu_) = 0;
};

}  // namespace wsq
