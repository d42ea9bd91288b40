// The traced run: replays a workload's seeded request streams in-process
// and times the public function of each serving layer on every request,
// recording one span per call.

#ifndef WIREBENCH_TRACED_H_
#define WIREBENCH_TRACED_H_

#include <string>
#include <vector>

#include "workload.h"

namespace wirebench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  long long samples = 0;  // sample count behind a timing; 0 otherwise
};

struct TracedRun {
  std::vector<Metric> metrics;
  long long spans = 0;
  long long requests = 0;
};

/// Replays `commands` (the readers' streams, interleaved) and then the
/// workload's appends, SAVEs and a reopen through a DurableRegistry, all
/// in-process. Storage files go under `scratch_dir`; the spans are
/// written to `spans_path` (one tab-separated line per span) when it is
/// nonempty. Replays commands until `budget_s` seconds have passed or the
/// list ends. False with `error` on any failure of a library call.
bool RunTraced(const Workload& workload, const std::vector<Command>& commands,
               double budget_s, const std::string& scratch_dir,
               const std::string& spans_path, TracedRun* out,
               std::string* error);

}  // namespace wirebench

#endif  // WIREBENCH_TRACED_H_
