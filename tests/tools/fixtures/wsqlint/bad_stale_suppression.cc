// wsqlint-fixture: dest=src/common/bad_stale_suppression.cc expect=stale-suppression:1
namespace wsq {

// wsqlint: allow(submit-drops-callback)
inline int Nothing() { return 0; }

}  // namespace wsq
