// A minimal worker pool: index-sharded parallel-for over [0, n).
//
// Workers pull indices from one atomic counter (dynamic load balancing —
// enumeration subtrees and fleet databases are wildly uneven), run the
// body, and join before the call returns. The body must synchronize any
// state shared across indices itself; writing to a per-index slot needs
// no synchronization. Exceptions must not escape the body.

#ifndef IODB_UTIL_PARALLEL_H_
#define IODB_UTIL_PARALLEL_H_

#include <functional>

namespace iodb {

/// A sensible worker count for this machine (hardware concurrency,
/// at least 1), read once per process.
int DefaultWorkerCount();

/// Runs fn(0..n-1), sharded over up to `num_workers` threads (the calling
/// thread is one of them). num_workers <= 1 or n <= 1 degrades to a plain
/// serial loop on the calling thread.
void ParallelFor(int n, int num_workers, const std::function<void(int)>& fn);

}  // namespace iodb

#endif  // IODB_UTIL_PARALLEL_H_
