/**
 * @file
 * The benchmark's seeded request generators and the oracle that
 * fixes every request's expected answer bytes.
 *
 * Two workloads, each a pure function of (seed, seconds):
 *
 *  - cold-novel: rounds of never-seen inline networks with zoo-like
 *    dims (12-32 layers, channels 16-512, spatial 7-56, kernels
 *    1/3/5) on 485t/690t, float and fixed, 1-3 budget rungs. No two
 *    share a core::networkSignature, so every request misses the
 *    registry.
 *  - restart-warm: one cycle of first-touch requests, the seven zoo
 *    networks in float on one device and fixed on the other plus
 *    AlexNet in float on the other device (15 sessions), repeated for
 *    a fixed number of restarts over a pre-populated cache directory.
 *
 * The mix of each workload is fixed; the seed picks the details
 * (lower rungs, layer dims, and the order of cold-novel requests), so
 * seeds change the bytes but not the amount of work. The sequence
 * length follows --seconds through a per-workload nominal rate, so a
 * given (seed, seconds) is the same work on every run and a run never
 * ends on a timer.
 */

#ifndef MCLP_PERFBENCH_WORKLOAD_H
#define MCLP_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload
{
    ColdNovel,
    RestartWarm,
};

/** Parse a workload name; dies on an unknown one. */
Workload workloadByName(const std::string &name);

/**
 * `prepare`: write timed.txt and expected.txt (request /
 * cold answer pairs from service::answerRequest(request, nullptr))
 * into the current directory and print a JSON summary.
 */
int runPrepare(const std::vector<std::string> &args);

} // namespace perfbench

#endif // MCLP_PERFBENCH_WORKLOAD_H
