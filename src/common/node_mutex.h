// The node-wide mutex with a hand-off request count.
//
// A node's app thread takes this mutex at its first DSM call and keeps it
// while it runs app code; it lets go only while it blocks on the node's
// condition variable, or at its next DSM call if another thread asked for
// the mutex in the meantime (src/dsm/node.h, "Lock discipline"). Every
// other thread — the node's service thread, recovery, post-run dumps —
// locks it through lock(), which announces the request before blocking.
// The app thread locks native() directly and polls requested() with one
// relaxed load per DSM call, so an access pays no atomic read-modify-write.
#ifndef CVM_COMMON_NODE_MUTEX_H_
#define CVM_COMMON_NODE_MUTEX_H_

#include <atomic>
#include <mutex>

namespace cvm {

class NodeMutex {
 public:
  // Lockable, for std::lock_guard / std::unique_lock from any thread other
  // than the node's app thread.
  void lock() {
    if (mu_.try_lock()) {
      return;
    }
    waiters_.fetch_add(1, std::memory_order_relaxed);
    mu_.lock();
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  void unlock() { mu_.unlock(); }

  // The app thread's side: the underlying mutex (its condition-variable
  // waits need a std::unique_lock<std::mutex>) and the request flag.
  std::mutex& native() { return mu_; }
  bool requested() const { return waiters_.load(std::memory_order_relaxed) != 0; }

 private:
  std::mutex mu_;
  std::atomic<int> waiters_{0};
};

}  // namespace cvm

#endif  // CVM_COMMON_NODE_MUTEX_H_
