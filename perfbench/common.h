/**
 * @file
 * Small shared pieces of the benchmark tool: timing, line files,
 * order statistics, a flat JSON writer, the byte-exact answer check,
 * and /proc readers for CPU time and resident memory.
 */

#ifndef MCLP_PERFBENCH_COMMON_H
#define MCLP_PERFBENCH_COMMON_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** A failed run: main() prints the message and exits 1 after the
 * stack unwinds, so every spawned server is stopped first. */
struct Failure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Throw a Failure with a printf-style message. */
[[noreturn]] void die(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** A subcommand's arguments: "--key value" pairs only. */
class Args
{
  public:
    explicit Args(const std::vector<std::string> &args);
    std::string text(const std::string &key,
                     const std::string &fallback) const;
    int64_t number(const std::string &key, int64_t fallback) const;

  private:
    std::unordered_map<std::string, std::string> values_;
};

std::vector<std::string> readLines(const std::string &path);
void writeLines(const std::string &path,
                const std::vector<std::string> &lines);

/** Linear-interpolated quantile (q in [0, 1]) of @p values. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Mean of the middle half of @p values (the interquartile mean): as
 * robust to a stray sample as the median, but it moves smoothly when
 * the samples form two close clusters, where a median jumps between
 * them.
 */
double middleMean(std::vector<double> values);

/** One flat JSON object, keys in insertion order. */
class JsonObject
{
  public:
    void add(const std::string &key, double value);
    void add(const std::string &key, int64_t value);
    void add(const std::string &key, const std::string &value);
    void addRaw(const std::string &key, const std::string &json);
    std::string str() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &key);
    std::string body_;
};

/** Expected answer bytes per distinct request line (the oracle). */
using Oracle = std::unordered_map<std::string, std::string>;

/** Load the request/answer pairs prepare wrote (expected.txt). */
Oracle loadOracle(const std::string &path);

/**
 * Requests attempted and how each ended. A request fails when the
 * answer is an err line, differs from the oracle's bytes, or never
 * arrives (transport error).
 */
struct Tally
{
    int64_t attempted = 0;
    int64_t ok = 0;
    int64_t mismatched = 0;
    int64_t errors = 0;
    int64_t transport = 0;

    int64_t failed() const { return mismatched + errors + transport; }
    void check(const std::string &request, const std::string &answer,
               const Oracle &oracle);
    void addTo(JsonObject &json) const;
};

/** user + sys CPU seconds of one process (all its threads). */
double processCpuSeconds(pid_t pid);

/** CPU seconds of one process's live threads, from the scheduler's
 * nanosecond accounting (/proc/PID/task/TID/schedstat): fine enough
 * for the front's share of a short sample. */
double threadsCpuSeconds(pid_t pid);

/** Peak resident set (VmHWM) of one process, in bytes. */
int64_t processPeakRssBytes(pid_t pid);

/** @p root and every live descendant (found through /proc). */
std::vector<pid_t> processTree(pid_t root);

/**
 * The host-speed probe: a streaming read over a fixed 128 MiB
 * buffer. Its time tracks the memory bandwidth the serving workloads
 * share with other tenants of the host, which moves their times by
 * tens of percent over minutes. The benchmark runs it between slices,
 * while no request is outstanding, and scales every time it reports
 * by kProbeReferenceSeconds over the probe's time next to it.
 */
/** The probe's time on the host the bounds were set on (4-vCPU KVM
 * guest, Intel Xeon at 2.1 GHz), so scaled times read as there. */
constexpr double kProbeReferenceSeconds = 0.017;

class HostProbe
{
  public:
    HostProbe();
    /** Seconds of one probe: the fastest of three reads. */
    double pass();

    ~HostProbe();
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

  private:
    uint64_t *buffer_;
    volatile uint64_t sink_ = 0;
};

/** Total bytes of the regular files under @p dir. */
int64_t directoryBytes(const std::string &dir);

/**
 * Path, size, inode and mtime (ns) of every regular file under
 * @p dir, one line each in path order: equal before and after only
 * if no file was written, replaced or added in between.
 */
std::string directoryState(const std::string &dir);

} // namespace perfbench

#endif // MCLP_PERFBENCH_COMMON_H
