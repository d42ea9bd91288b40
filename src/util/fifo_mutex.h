// A mutex that admits its waiters in arrival order.
//
// std::mutex makes no fairness promise, and glibc's does not keep one: a
// thread that unlocks and at once locks again usually wins against the
// waiter the unlock woke, so a writer loop can starve every other writer
// for as long as it runs. FifoMutex hands out tickets and serves them in
// order, so a waiter is admitted after at most the holders that arrived
// before it. Uncontended, lock and unlock each take and release one
// std::mutex; a handoff to a waiter costs one condition-variable wake-up.
// Satisfies Lockable's lock/unlock half (no try_lock): use it with
// std::lock_guard or std::unique_lock.

#ifndef IODB_UTIL_FIFO_MUTEX_H_
#define IODB_UTIL_FIFO_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace iodb {

class FifoMutex {
 public:
  FifoMutex() = default;
  FifoMutex(const FifoMutex&) = delete;
  FifoMutex& operator=(const FifoMutex&) = delete;

  void lock() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t ticket = next_ticket_++;
    turn_.wait(lock, [&] { return serving_ == ticket; });
  }

  void unlock() {
    bool waiters;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++serving_;
      waiters = serving_ != next_ticket_;
    }
    // Every waiter checks its own ticket; only the next one proceeds.
    if (waiters) turn_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable turn_;
  uint64_t next_ticket_ = 0;  // the ticket the next lock() takes
  uint64_t serving_ = 0;      // the ticket that holds the mutex
};

}  // namespace iodb

#endif  // IODB_UTIL_FIFO_MUTEX_H_
