/**
 * @file
 * mclp-perfbench — the serving benchmark's tool. perfbench/run.py
 * calls it; each subcommand works in the current directory (a private
 * run directory) and prints one JSON object on stdout.
 *
 *   prepare --workload W --seed N --seconds S
 *       write timed.txt and expected.txt
 *   serve --workload W --bin-dir DIR [--cycles C]
 *       drive the real mclp-serve / mclp-front over the prepared
 *       sequence and report the end-to-end metrics
 *   trace --workload W [--bin-dir DIR] [--cycles C] [--spans FILE]
 *       replay the sequence in-process with a span around each layer
 *       call and report the per-layer metrics (restart-warm also
 *       times the server and front hops against live binaries)
 */

#include <sys/prctl.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "serving.h"
#include "trace.h"
#include "workload.h"

namespace {

int
dispatch(const std::string &command, const std::vector<std::string> &args)
{
    if (command == "prepare")
        return perfbench::runPrepare(args);
    if (command == "serve")
        return perfbench::runServe(args);
    if (command == "trace")
        return perfbench::runTrace(args);
    std::fprintf(stderr, "mclp-perfbench: unknown command '%s'\n",
                 command.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: mclp-perfbench prepare|serve|trace "
                             "--key value ...\n");
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);
    // Workers of a killed front re-parent here, so a failed run can
    // still reap every process it started.
    prctl(PR_SET_CHILD_SUBREAPER, 1);
    int status = 1;
    try {
        status = dispatch(argv[1], std::vector<std::string>(argv + 2,
                                                            argv + argc));
    } catch (const std::exception &err) {
        std::fprintf(stderr, "mclp-perfbench: %s\n", err.what());
    }
    while (waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
    }
    return status;
}
