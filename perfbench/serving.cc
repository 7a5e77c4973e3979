#include "serving.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "workload.h"

namespace perfbench {

namespace {

/** No single answer or drain may take longer than this. */
constexpr int kTimeoutSeconds = 120;

/** Slices per cold-novel round: a host probe runs between two
 * slices, every half second or so. */
constexpr size_t kColdSlices = 4;

} // namespace

LineClient::LineClient(int fd) : fd_(fd)
{
    timeval timeout{kTimeoutSeconds, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

bool
LineClient::roundTrip(const std::string &request, std::string *answer)
{
    std::string out = request + "\n";
    if (!fd_.valid() ||
        !mclp::util::writeAll(fd_.get(), out.data(), out.size())) {
        fd_.reset();
        return false;
    }
    while (true) {
        size_t newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            answer->assign(buffer_, 0, newline);
            buffer_.erase(0, newline + 1);
            return true;
        }
        char chunk[1 << 16];
        ssize_t got = recv(fd_.get(), chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0) {
            fd_.reset();
            return false;
        }
        buffer_.append(chunk, static_cast<size_t>(got));
    }
}

void
LineClient::drive(const std::vector<std::string> &lines,
                  const Oracle &oracle, Tally *tally,
                  std::vector<double> *latencies)
{
    std::string answer;
    for (const std::string &line : lines) {
        Clock::time_point start = Clock::now();
        if (!roundTrip(line, &answer)) {
            ++tally->attempted;
            ++tally->transport;
            continue;
        }
        double seconds = secondsBetween(start, Clock::now());
        tally->check(line, answer, oracle);
        if (latencies)
            latencies->push_back(seconds);
    }
}

ServerProcess::ServerProcess(const std::vector<std::string> &argv,
                             std::string socket)
    : socket_(std::move(socket))
{
    ::unlink(socket_.c_str());
    std::vector<char *> cargv;
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);
    spawned_ = Clock::now();
    pid_ = fork();
    if (pid_ < 0)
        die("fork: %s", std::strerror(errno));
    if (pid_ == 0) {
        // Servers log to stderr only; keep it for a failed run.
        int log = open("server.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
        int null = open("/dev/null", O_RDWR);
        dup2(null, 0);
        dup2(null, 1);
        dup2(log, 2);
        execv(cargv[0], cargv.data());
        _exit(127);
    }
}

ServerProcess::~ServerProcess()
{
    if (pid_ <= 0)
        return;
    // A failed run: stop the server and every worker it spawned.
    // Orphaned workers are reaped by main(), the child subreaper.
    for (pid_t pid : processTree(pid_))
        kill(pid, SIGKILL);
    waitpid(pid_, nullptr, 0);
}

double
ServerProcess::waitReady(LineClient *client)
{
    while (true) {
        int fd = mclp::util::connectUnix(socket_);
        if (fd >= 0) {
            *client = LineClient(fd);
            return secondsBetween(spawned_, Clock::now());
        }
        siginfo_t info{};
        if (waitid(P_PID, static_cast<id_t>(pid_), &info,
                   WEXITED | WNOHANG | WNOWAIT) == 0 &&
            info.si_pid == pid_)
            die("%s exited before listening (see server.log)",
                socket_.c_str());
        if (secondsBetween(spawned_, Clock::now()) > kTimeoutSeconds)
            die("%s never started listening", socket_.c_str());
        usleep(100);
    }
}

double
ServerProcess::shutdown(LineClient &client)
{
    Clock::time_point start = Clock::now();
    std::string answer;
    if (!client.roundTrip("shutdown", &answer) || answer != "ok shutdown")
        die("shutdown was not acknowledged (got '%s')", answer.c_str());
    client = LineClient();
    while (true) {
        int status = 0;
        pid_t got = wait4(pid_, &status, WNOHANG, &usage_);
        if (got == pid_) {
            double seconds = secondsBetween(start, Clock::now());
            pid_ = -1;
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
                die("server exited with status %d after shutdown",
                    status);
            return seconds;
        }
        if (secondsBetween(start, Clock::now()) > kTimeoutSeconds)
            die("server did not exit within %d s of shutdown",
                kTimeoutSeconds);
        usleep(100);
    }
}

namespace {

/** Sum of per-process CPU seconds over a process tree. */
double
treeCpuSeconds(const std::vector<pid_t> &tree)
{
    double seconds = 0.0;
    for (pid_t pid : tree)
        seconds += processCpuSeconds(pid);
    return seconds;
}

/** Sum of per-process peak RSS over a process tree, in bytes. */
int64_t
treePeakRssBytes(const std::vector<pid_t> &tree)
{
    int64_t bytes = 0;
    for (pid_t pid : tree)
        bytes += processPeakRssBytes(pid);
    return bytes;
}

double
cpuSecondsOf(const rusage &usage)
{
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** One stretch of a timed phase, between two host probes: a quarter
 * of a cold-novel round, or one restart-warm cycle. */
struct Slice
{
    double seconds = 0.0;           ///< wall time
    double cpuSeconds = 0.0;        ///< serving tree CPU
    std::vector<double> latencies;  ///< seconds, answered requests
    double probe = 0.0;  ///< mean host probe seconds at its two ends
};

/** A set-up or drain time and the host probe taken next to it. */
struct Sample
{
    double seconds;
    double probe;
};

/** What one end-to-end run measured (see perfbench/README.md). */
struct EndToEnd
{
    Tally tally;
    std::vector<Sample> setup;   ///< one per set-up
    std::vector<Sample> drains;  ///< one per drain
    std::vector<Slice> slices;
    int64_t rssBytes = 0;
    int64_t diskBytes = 0;
    /** restart-warm: cycles after which a cache file was written,
     * replaced or added (stat identity, not size); any makes the run
     * incorrect, since the cycles are defined to write nothing. */
    int64_t rewrites = 0;

    void print() const;
};

/** Seconds scaled to the reference host speed. */
double
scaled(double seconds, double probe)
{
    return seconds * kProbeReferenceSeconds / probe;
}

void
EndToEnd::print() const
{
    // Every time is scaled by the host probe taken next to it; the
    // raw values over the whole timed phase are reported beside them.
    std::vector<double> latencies, raw_latencies, probes;
    double seconds = 0.0, cpu_seconds = 0.0;
    double raw_seconds = 0.0, raw_cpu_seconds = 0.0;
    for (const Slice &slice : slices) {
        for (double latency : slice.latencies) {
            latencies.push_back(scaled(latency, slice.probe));
            raw_latencies.push_back(latency);
        }
        seconds += scaled(slice.seconds, slice.probe);
        cpu_seconds += scaled(slice.cpuSeconds, slice.probe);
        raw_seconds += slice.seconds;
        raw_cpu_seconds += slice.cpuSeconds;
        probes.push_back(slice.probe);
    }
    auto scaledMedian = [](const std::vector<Sample> &samples, bool middle) {
        std::vector<double> values;
        for (const Sample &sample : samples)
            values.push_back(scaled(sample.seconds, sample.probe));
        return middle ? middleMean(values) : median(values);
    };
    double answered = static_cast<double>(latencies.size());

    JsonObject raw;
    raw.add("throughput_rps", answered / raw_seconds);
    raw.add("lat_p50_ms", quantile(raw_latencies, 0.5) * 1e3);
    raw.add("lat_p90_ms", quantile(raw_latencies, 0.9) * 1e3);
    raw.add("cpu_ms_per_req", raw_cpu_seconds * 1e3 / answered);
    std::vector<double> raw_setup, raw_drain;
    for (const Sample &sample : setup)
        raw_setup.push_back(sample.seconds);
    for (const Sample &sample : drains)
        raw_drain.push_back(sample.seconds);
    raw.add("setup_s", median(raw_setup));
    raw.add("drain_s", middleMean(raw_drain));

    JsonObject json;
    tally.addTo(json);
    json.add("samples", static_cast<int64_t>(latencies.size()));
    json.add("slices", static_cast<int64_t>(slices.size()));
    json.add("setup_reps", static_cast<int64_t>(setup.size()));
    json.add("setup_s", scaledMedian(setup, false));
    json.add("throughput_rps", answered / seconds);
    json.add("lat_p50_ms", quantile(latencies, 0.5) * 1e3);
    json.add("lat_p90_ms", quantile(latencies, 0.9) * 1e3);
    json.add("cpu_ms_per_req", cpu_seconds * 1e3 / answered);
    json.add("rss_mb", static_cast<double>(rssBytes) / kMiB);
    json.add("drain_s", scaledMedian(drains, true));
    json.add("probe_ms", median(probes) * 1e3);
    json.add("disk_mb", static_cast<double>(diskBytes) / kMiB);
    json.add("rewrites", rewrites);
    json.add("timed_s", raw_seconds);
    json.addRaw("raw", raw.str());
    std::printf("%s\n", json.str().c_str());
}

/**
 * Drive @p lines as one slice, sampling the tree's CPU around it,
 * then probe the host; @p probe holds the probe before the slice on
 * entry and the one after it on return.
 */
Slice
timedSlice(LineClient &client, const std::vector<std::string> &lines,
           const Oracle &oracle, const std::vector<pid_t> &tree, Tally *tally,
           HostProbe &host, double *probe)
{
    Slice slice;
    double cpu = treeCpuSeconds(tree);
    Clock::time_point start = Clock::now();
    client.drive(lines, oracle, tally, &slice.latencies);
    slice.seconds = secondsBetween(start, Clock::now());
    slice.cpuSeconds = treeCpuSeconds(tree) - cpu;
    double after = host.pass();
    slice.probe = (*probe + after) / 2;
    *probe = after;
    return slice;
}

std::vector<std::string>
serveArgv(const std::string &bin_dir, const std::string &socket,
          const std::string &cache_dir)
{
    return {bin_dir + "/mclp-serve", "--socket", socket, "--cache-dir",
            cache_dir};
}

/**
 * cold-novel: @p rounds server lifetimes, each an mclp-serve on an
 * empty cache directory answering its share of the novel networks
 * in kColdSlices slices and then draining (the final flush writes
 * the cache). Set-up is the bare spawn; peak RSS and cache size are
 * medians over rounds.
 */
EndToEnd
coldNovel(const std::string &bin_dir, const std::vector<std::string> &timed,
          const Oracle &oracle, int rounds)
{
    EndToEnd e;
    HostProbe host;
    double probe = host.pass();
    size_t per_round = timed.size() / static_cast<size_t>(rounds);
    std::vector<double> rss, disk;
    for (int r = 0; r < rounds; ++r) {
        std::string dir = "cache" + std::to_string(r);
        std::filesystem::create_directory(dir);
        ServerProcess server(serveArgv(bin_dir, "serve.sock", dir),
                             "serve.sock");
        LineClient client;
        e.setup.push_back({server.waitReady(&client), probe});
        std::vector<pid_t> tree = processTree(server.pid());
        auto round = timed.begin() + r * per_round;
        for (size_t k = 0; k < kColdSlices; ++k) {
            std::vector<std::string> lines(
                round + k * per_round / kColdSlices,
                round + (k + 1) * per_round / kColdSlices);
            e.slices.push_back(timedSlice(client, lines, oracle, tree,
                                          &e.tally, host, &probe));
        }
        int64_t peak = treePeakRssBytes(tree);
        double drain = server.shutdown(client);
        probe = host.pass();
        e.drains.push_back({drain, probe});
        rss.push_back(static_cast<double>(
            std::max(peak, int64_t{server.usage().ru_maxrss} * 1024)));
        disk.push_back(static_cast<double>(directoryBytes(dir)));
        std::filesystem::remove_all(dir);
    }
    e.rssBytes = static_cast<int64_t>(median(rss));
    e.diskBytes = static_cast<int64_t>(median(disk));
    return e;
}

/**
 * restart-warm: populate a cache directory with exactly the cycle's
 * rows, then restart mclp-serve on it @p cycles times; each cycle is
 * spawn, first-touch requests, shutdown, exit, and one slice. The
 * timed phase is the sum of whole cycles; peak RSS is the median
 * over cycles, CPU the exited processes' own accounting.
 */
EndToEnd
restartWarm(const std::string &bin_dir, const std::vector<std::string> &cycle,
            const Oracle &oracle, int cycles)
{
    EndToEnd e;
    std::filesystem::create_directory("cache");
    std::vector<std::string> argv = serveArgv(bin_dir, "serve.sock", "cache");
    {
        ServerProcess populate(argv, "serve.sock");
        LineClient client;
        populate.waitReady(&client);
        client.drive(cycle, oracle, &e.tally, nullptr);
        populate.shutdown(client);
    }
    std::string populated = directoryState("cache");
    std::vector<double> rss;
    HostProbe host;
    double probe = host.pass();
    for (int c = 0; c < cycles; ++c) {
        Slice slice;
        Clock::time_point spawn = Clock::now();
        ServerProcess server(argv, "serve.sock");
        LineClient client;
        e.setup.push_back({server.waitReady(&client), probe});
        client.drive(cycle, oracle, &e.tally, &slice.latencies);
        double drain = server.shutdown(client);
        slice.seconds = secondsBetween(spawn, Clock::now());
        slice.cpuSeconds = cpuSecondsOf(server.usage());
        rss.push_back(static_cast<double>(server.usage().ru_maxrss) * 1024);
        if (directoryState("cache") != populated)
            ++e.rewrites;
        double after = host.pass();
        slice.probe = (probe + after) / 2;
        probe = after;
        e.drains.push_back({drain, probe});
        e.slices.push_back(std::move(slice));
    }
    e.rssBytes = static_cast<int64_t>(median(rss));
    e.diskBytes = directoryBytes("cache");
    return e;
}

} // namespace

int
runServe(const std::vector<std::string> &raw)
{
    Args args(raw);
    Workload workload = workloadByName(args.text("workload", ""));
    std::string bin_dir = args.text("bin-dir", "");
    if (bin_dir.empty())
        die("serve needs --bin-dir");
    int cycles = static_cast<int>(args.number("cycles", 1));
    if (cycles < 1)
        die("--cycles must be at least 1");
    Oracle oracle = loadOracle("expected.txt");
    std::vector<std::string> timed = readLines("timed.txt");

    EndToEnd e;
    switch (workload) {
    case Workload::ColdNovel:
        e = coldNovel(bin_dir, timed, oracle, cycles);
        break;
    case Workload::RestartWarm:
        e = restartWarm(bin_dir, timed, oracle, cycles);
        break;
    }
    if (e.slices.empty())
        die("no timed slice ran");
    for (const Slice &slice : e.slices)
        if (slice.latencies.empty())
            die("a timed slice had no answered request");
    e.print();
    return 0;
}

} // namespace perfbench
