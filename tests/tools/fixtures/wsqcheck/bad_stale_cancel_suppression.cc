// wsqcheck-fixture: dest=src/common/bad_stale_cancel_suppression.cc expect=stale-suppression:1
// The allow() below suppresses nothing: there is no Wait to excuse.
namespace wsq {

// wsqcheck: allow(cancel-blind-wait)
inline int Nothing() { return 0; }

}  // namespace wsq
