/**
 * @file
 * The end-to-end half of the benchmark: spawn the real serving
 * binaries, drive them from one closed-loop connection, and measure
 * what a user of the service sees.
 */

#ifndef MCLP_PERFBENCH_SERVING_H
#define MCLP_PERFBENCH_SERVING_H

#include <sys/resource.h>
#include <sys/types.h>

#include <string>
#include <vector>

#include "common.h"
#include "util/net.h"

namespace perfbench {

/** One blocking line-protocol connection with a receive timeout. */
class LineClient
{
  public:
    LineClient() = default;
    explicit LineClient(int fd);

    /** Send @p request, wait for its answer line. False on a
     * transport error (the connection is closed then). */
    bool roundTrip(const std::string &request, std::string *answer);

    /**
     * Send each line in order and wait for its answer before the
     * next; check every answer against @p oracle. Latencies (seconds)
     * of answered requests go to @p latencies when given. After a
     * transport error the rest count as attempted and failed.
     */
    void drive(const std::vector<std::string> &lines, const Oracle &oracle,
               Tally *tally, std::vector<double> *latencies);

  private:
    mclp::util::ScopedFd fd_;
    std::string buffer_;
};

/**
 * A spawned mclp-serve or mclp-front, in the current directory.
 * Destroying one that is still running kills it and every
 * descendant (the front's workers), then reaps them.
 */
class ServerProcess
{
  public:
    ServerProcess(const std::vector<std::string> &argv,
                  std::string socket);
    ~ServerProcess();
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    pid_t pid() const { return pid_; }

    /** Connect as soon as the listener accepts; returns seconds
     * from spawn to that moment. Dies if the process exits first. */
    double waitReady(LineClient *client);

    /** Send `shutdown` on @p client and wait for the process to
     * exit cleanly; returns seconds from the send to the exit. */
    double shutdown(LineClient &client);

    /** Resource use of the exited process and its reaped children. */
    const rusage &usage() const { return usage_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
    Clock::time_point spawned_;
    rusage usage_{};
};

/** `serve`: the end-to-end run of one workload (see main.cc). */
int runServe(const std::vector<std::string> &args);

} // namespace perfbench

#endif // MCLP_PERFBENCH_SERVING_H
