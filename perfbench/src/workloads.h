#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

// Each runs one workload end to end (set-up, measured window, checks) and
// fills `report`: the end-to-end metrics with config.trace off, the
// per-layer metrics from a traced pass with it on.
// RunEngine's `backend` is "gpu", "mc" or "cpu".
void RunEngine(const Config& config, const std::string& backend,
               Report* report);
void RunSweep(const Config& config, Report* report);
void RunServe(const Config& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
