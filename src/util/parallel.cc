#include "util/parallel.h"

#include <atomic>
#include <thread>
#include <vector>

namespace iodb {

int DefaultWorkerCount() {
  // hardware_concurrency() reads sysfs on every call; the count is fixed
  // for the life of the process.
  static const int count = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return count;
}

void ParallelFor(int n, int num_workers, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (num_workers <= 1 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  auto worker = [&]() {
    while (true) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  const int spawned = std::min(num_workers, n) - 1;
  std::vector<std::thread> threads;
  threads.reserve(spawned);
  for (int t = 0; t < spawned; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& thread : threads) thread.join();
}

}  // namespace iodb
