/**
 * @file
 * The per-layer half of the benchmark: replay a workload's sequence
 * in-process, with a span around each public call that
 * service::answerRequest makes, and read the layers' own counters
 * (SessionRegistry, FrontierRowStore, FrontierCache, util::prof) at
 * the same boundaries.
 */

#ifndef MCLP_PERFBENCH_TRACE_H
#define MCLP_PERFBENCH_TRACE_H

#include <string>
#include <vector>

namespace perfbench {

/** `trace`: the traced run of one workload (see main.cc). */
int runTrace(const std::vector<std::string> &args);

} // namespace perfbench

#endif // MCLP_PERFBENCH_TRACE_H
