#include "service/shard_forwarder.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/dse_request.h"
#include "service/dse_codec.h"
#include "service/shard_merge.h"
#include "util/logging.h"
#include "util/record_file.h"
#include "util/string_utils.h"

namespace mclp {
namespace service {

size_t
shardFor(const std::string &line, size_t shards)
{
    // Identity-based routing: equal layer dims → same shard, so a
    // network's warm session and cache shard are never split across
    // workers. Anything that fails to resolve routes by raw bytes —
    // still deterministic, and the worker it lands on emits exactly
    // the err line a lone worker would.
    try {
        std::string sig = core::networkSignature(
            core::resolveNetwork(decodeRequest(line)));
        return util::fnv1aBytes(sig.data(), sig.size()) % shards;
    } catch (const std::exception &) {
        return util::fnv1aBytes(line.data(), line.size()) % shards;
    }
}

namespace {

/** Uptime under this much is a "rapid re-death": backoff doubles
 * instead of resetting. */
constexpr int64_t kBackoffResetUptimeMs = 10000;

/** A worker that cannot be connected within this window after its
 * spawn has failed to start (its listener never came up). */
constexpr int64_t kConnectDeadlineMs = 10000;

/**
 * A stats/cache-stats broadcast in flight: the client slot that owes
 * the merged answer plus the per-shard parts still being collected.
 */
struct Aggregate
{
    Ticket ticket;
    std::string verb;
    std::vector<std::string> parts;  ///< one per shard
    size_t remaining = 0;
};

/**
 * One response slot owed by a worker. A direct slot forwards the
 * worker's answer verbatim into its ticket; an aggregate slot makes
 * the answer that shard's part of a merged stats response. The
 * scavenged request id rides along so a slot that dies with its
 * worker still answers under the client's own id.
 */
struct PendingSlot
{
    Ticket ticket;
    std::shared_ptr<Aggregate> aggregate;  ///< null = direct forward
    std::string id;  ///< scavenged request id ("-" when none)
};

/**
 * One supervised mclp-serve worker: the child process, the trunk to
 * its socket, the FIFO of slots whose answers are still inside it,
 * and the respawn state machine (see the file comment). The worker
 * answers its trunk strictly in request order (the server's own
 * pipelining contract), so the FIFO head always names the response
 * line that arrives next — no request ids needed on the trunk.
 */
struct Worker
{
    enum class State
    {
        Up,        ///< connected and serving
        Killed,    ///< dead to us; awaiting the reap
        Backoff,   ///< reaped; respawn scheduled at respawnAtMs
        Starting,  ///< spawned; connecting to its socket
    };

    pid_t pid = -1;
    size_t index = 0;  ///< shard number (position in workers_)
    std::string socketPath;
    std::vector<std::string> argv;  ///< built once, before any fork
    std::unique_ptr<Connection> link;
    std::deque<PendingSlot> pending;
    State state = State::Starting;
    uint64_t restarts = 0;     ///< successful respawns so far
    int64_t connectedAtMs = 0; ///< uptime anchor of this incarnation
    int64_t spawnedAtMs = 0;   ///< fork time (Starting deadline)
    int64_t respawnAtMs = 0;   ///< due time while in Backoff
    int backoffMs = 0;         ///< current backoff step (0 = fresh)
};

class ShardForwarder final : public Dispatcher
{
  public:
    explicit ShardForwarder(ShardForwarderOptions opts)
        : opts_(std::move(opts))
    {
    }
    ~ShardForwarder() override { finish(); }

    bool start(Server &server) override;
    void dispatch(Ticket ticket, std::string line) override;
    int addPollFds(std::vector<pollfd> &fds) override;
    void onPolled(const pollfd *fds, size_t count) override;
    int finish() override;

  private:
    std::string shardDir(size_t index) const;
    std::vector<std::string>
    workerArgs(const Worker &worker, const Server::Options &front) const;
    bool spawnWorker(Worker &worker);
    bool connectWorker(Worker &worker);
    bool connectWorkers();
    void forward(Worker &worker, PendingSlot slot, const std::string &line);
    void broadcastStats(Ticket ticket, const std::string &verb);
    void settle(const PendingSlot &slot, size_t shard, std::string line);
    void countPart(Aggregate &agg);
    std::string frontStatsLine() const;
    void readWorker(Worker &worker);
    void markWorkerDead(Worker &worker, const char *why);
    void reapExited();
    void scheduleRespawn(Worker &worker);
    void superviseWorkers();
    void pumpWorker(Worker &worker);

    ShardForwarderOptions opts_;
    Server *server_ = nullptr;
    std::vector<Worker> workers_;
    uint64_t totalRestarts_ = 0;
    /** A worker crashed after the drain began: the cascade was not
     * clean, so finish() returns 1. Pre-drain crashes are handled by
     * supervision and do not poison the exit code. */
    bool crashedDuringDrain_ = false;
};

std::string
ShardForwarder::shardDir(size_t index) const
{
    return opts_.cacheDir + "/shard-" + std::to_string(index);
}

std::vector<std::string>
ShardForwarder::workerArgs(const Worker &worker,
                           const Server::Options &front) const
{
    std::vector<std::string> args = {opts_.serveBin, "--socket",
                                     worker.socketPath};
    if (!opts_.cacheDir.empty()) {
        args.push_back("--cache-dir");
        args.push_back(shardDir(worker.index));
        if (opts_.cacheMaxMb > 0) {
            args.push_back("--cache-max-mb");
            args.push_back(std::to_string(opts_.cacheMaxMb));
        }
        if (opts_.cacheFlushIntervalMs > 0) {
            args.push_back("--cache-flush-interval-ms");
            args.push_back(std::to_string(opts_.cacheFlushIntervalMs));
        }
    }
    args.push_back("--threads");
    args.push_back(std::to_string(opts_.threads));
    if (opts_.maxSessions > 0) {
        args.push_back("--max-sessions");
        args.push_back(std::to_string(opts_.maxSessions));
    }
    // Admission happens once, at the front: a trunk carries at most
    // the front's in-flight lines, so these caps can never shed one.
    std::string cap = std::to_string(front.maxInflight);
    for (const char *flag : {"--max-pipeline", "--max-inflight"}) {
        args.push_back(flag);
        args.push_back(cap);
    }
    args.push_back("--max-line-bytes");
    args.push_back(std::to_string(front.maxLineBytes));
    return args;
}

bool
ShardForwarder::spawnWorker(Worker &worker)
{
    // Everything the child needs is built before fork(): in a
    // multi-threaded parent, the child may only exec or _exit.
    std::vector<char *> argv;
    for (std::string &arg : worker.argv)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = fork();
    if (pid < 0) {
        util::warn("mclp-front: fork: %s", std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        execvp(argv[0], argv.data());
        _exit(127);
    }
    worker.pid = pid;
    worker.state = Worker::State::Starting;
    worker.spawnedAtMs = util::monotonicMs();
    return true;
}

bool
ShardForwarder::connectWorker(Worker &worker)
{
    int fd = util::connectUnix(worker.socketPath);
    if (fd < 0)
        return false;
    util::setNonBlocking(fd);
    // A Connection gives the trunk exactly what it needs: line
    // framing on the read side and an ordered write queue
    // (alloc+complete+flushReady appends "line\n") on the other.
    // The line cap is effectively off: response lines are bounded
    // by the optimizer's output, not by the request-line cap.
    worker.link = std::make_unique<Connection>(fd, 0, size_t{1} << 40);
    worker.state = Worker::State::Up;
    worker.connectedAtMs = util::monotonicMs();
    return true;
}

bool
ShardForwarder::connectWorkers()
{
    // A worker's socket appears once its listener is bound; retry
    // briefly, and fail fast when the child died (bad binary, bind
    // failure) instead of spinning the full deadline.
    int64_t deadline = util::monotonicMs() + kConnectDeadlineMs;
    for (Worker &worker : workers_) {
        while (!connectWorker(worker)) {
            int status = 0;
            if (waitpid(worker.pid, &status, WNOHANG) == worker.pid) {
                // 127 is the child's _exit() after a failed execvp().
                bool no_exec = WIFEXITED(status) && WEXITSTATUS(status) == 127;
                util::warn("mclp-front: worker %s exited during startup%s",
                           worker.socketPath.c_str(),
                           no_exec ? " (could not exec --serve-bin)" : "");
                worker.pid = -1;
                return false;
            }
            if (util::monotonicMs() > deadline) {
                util::warn("mclp-front: worker %s never came up",
                           worker.socketPath.c_str());
                return false;
            }
            usleep(20 * 1000);
        }
    }
    return true;
}

bool
ShardForwarder::start(Server &server)
{
    server_ = &server;
    for (int w = 0; w < opts_.workers; ++w) {
        Worker worker;
        worker.index = static_cast<size_t>(w);
        worker.socketPath = opts_.socketPath + ".w" + std::to_string(w);
        if (!opts_.cacheDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(shardDir(worker.index),
                                                ec);
            if (ec) {
                util::warn("mclp-front: cannot create %s: %s",
                           shardDir(worker.index).c_str(),
                           ec.message().c_str());
                return false;
            }
        }
        worker.argv = workerArgs(worker, server.options());
        workers_.push_back(std::move(worker));
        if (!spawnWorker(workers_.back()))
            return false;
    }
    return connectWorkers();
}

void
ShardForwarder::dispatch(Ticket ticket, std::string line)
{
    if (line == "front-stats") {
        server_->complete(ticket, frontStatsLine());
        return;
    }
    if (line == "stats" || line == "cache-stats") {
        broadcastStats(std::move(ticket), line);
        return;
    }
    Worker &worker = workers_[shardFor(line, workers_.size())];
    std::string id = scavengeId(line);
    if (worker.state != Worker::State::Up) {
        // The shard is down (dying, in backoff, or restarting): shed
        // immediately rather than queue into an unbounded buffer. The
        // client sees the same err form an in-flight line gets when
        // its worker dies under it.
        server_->complete(ticket, "err id=" + id + " msg=worker-died");
        return;
    }
    forward(worker, PendingSlot{std::move(ticket), nullptr, std::move(id)},
            line);
}

void
ShardForwarder::forward(Worker &worker, PendingSlot slot,
                        const std::string &line)
{
    worker.pending.push_back(std::move(slot));
    worker.link->complete(worker.link->allocSeq(), line);
    worker.link->flushReady();
    pumpWorker(worker);
}

void
ShardForwarder::broadcastStats(Ticket ticket, const std::string &verb)
{
    // Every shard owns a disjoint slice of the traffic, so a
    // front-level answer has to hear from all of them; dead workers
    // contribute an err part instead of stalling the merge.
    auto agg = std::make_shared<Aggregate>();
    agg->ticket = std::move(ticket);
    agg->verb = verb;
    agg->parts.assign(workers_.size(), "err id=- msg=worker-died");
    // One extra count until every live shard was asked: a trunk that
    // fails mid-broadcast settles its part early, and that must not
    // complete the merge before the remaining shards were asked.
    agg->remaining = 1;
    for (Worker &worker : workers_) {
        if (worker.state != Worker::State::Up)
            continue;
        ++agg->remaining;
        forward(worker, PendingSlot{Ticket{}, agg, "-"}, verb);
    }
    countPart(*agg);
}

void
ShardForwarder::settle(const PendingSlot &slot, size_t shard,
                       std::string line)
{
    if (!slot.aggregate) {
        server_->complete(slot.ticket, std::move(line));
        return;
    }
    slot.aggregate->parts[shard] = std::move(line);
    countPart(*slot.aggregate);
}

void
ShardForwarder::countPart(Aggregate &agg)
{
    if (--agg.remaining == 0)
        server_->complete(agg.ticket,
                          mergeStatsParts(agg.verb, agg.parts));
}

std::string
ShardForwarder::frontStatsLine() const
{
    // The supervisor's own view — answered by the front, never
    // broadcast, so it works even with every shard down. Shape:
    //   ok front-stats workers=K draining=D restarts=TOTAL
    //      shardN=STATE:PID:RESTARTS:UPTIME_MS ...
    int64_t now = util::monotonicMs();
    std::string out = util::strprintf(
        "ok front-stats workers=%d draining=%d restarts=%llu",
        opts_.workers, server_->draining() ? 1 : 0,
        static_cast<unsigned long long>(totalRestarts_));
    for (const Worker &worker : workers_) {
        const char *state = "down";
        if (worker.state == Worker::State::Up)
            state = "up";
        else if (worker.state == Worker::State::Starting)
            state = "starting";
        int64_t uptime =
            worker.state == Worker::State::Up &&
                    worker.connectedAtMs > 0
                ? now - worker.connectedAtMs
                : 0;
        out += util::strprintf(
            " shard%zu=%s:%s:%llu:%lld", worker.index, state,
            worker.pid > 0 ? std::to_string(worker.pid).c_str() : "-",
            static_cast<unsigned long long>(worker.restarts),
            static_cast<long long>(uptime));
    }
    return out;
}

void
ShardForwarder::readWorker(Worker &worker)
{
    char buf[64 * 1024];
    bool eof = false;
    while (true) {
        ssize_t got = read(worker.link->fd(), buf, sizeof buf);
        if (got > 0) {
            worker.link->ingest(buf, static_cast<size_t>(got));
            continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                        errno == EINTR))
            break;
        eof = true;
        break;
    }
    std::string line;
    while (worker.link->nextLine(&line) == Connection::LineStatus::Line) {
        if (worker.pending.empty()) {
            util::warn("mclp-front: unsolicited worker line dropped");
            continue;
        }
        PendingSlot slot = std::move(worker.pending.front());
        worker.pending.pop_front();
        settle(slot, worker.index, std::move(line));
        line.clear();
    }
    if (eof)
        markWorkerDead(worker, "closed its connection");
}

void
ShardForwarder::markWorkerDead(Worker &worker, const char *why)
{
    // The trunk failed while the process may still be alive (wedged,
    // or mid-crash before the kernel reaps it). The supervisor never
    // runs two incarnations of one shard, so force the old pid down;
    // the reap then schedules the respawn.
    if (worker.state != Worker::State::Up)
        return;
    util::warn("mclp-front: worker %s %s",
               worker.socketPath.c_str(), why);
    worker.state = Worker::State::Killed;
    if (server_->draining())
        crashedDuringDrain_ = true;
    // Answers that died inside the worker still answer: every owed
    // direct slot gets an err line under its own scavenged id, and
    // every owed aggregate part settles as one ("err id=-"), so no
    // client hangs on a hole in its response order. The FIFO is
    // detached first, so settling can never see it half-consumed.
    std::deque<PendingSlot> owed;
    owed.swap(worker.pending);
    worker.link.reset();
    for (const PendingSlot &slot : owed)
        settle(slot, worker.index, "err id=" + slot.id + " msg=worker-died");
    if (worker.pid > 0)
        kill(worker.pid, SIGKILL);
}

void
ShardForwarder::scheduleRespawn(Worker &worker)
{
    int64_t now = util::monotonicMs();
    int64_t uptime = worker.connectedAtMs > 0
                         ? now - worker.connectedAtMs
                         : 0;
    // Capped exponential backoff: a worker that keeps dying right
    // after (re)spawn backs off harder each time; one that served for
    // a while earns a fresh (short) delay — the crash was presumably
    // load-dependent, and availability wants the shard back fast.
    if (worker.backoffMs <= 0 || uptime >= kBackoffResetUptimeMs)
        worker.backoffMs = opts_.respawnBackoffMs;
    else
        worker.backoffMs = std::min(worker.backoffMs * 2,
                                    opts_.respawnBackoffMaxMs);
    worker.state = Worker::State::Backoff;
    worker.respawnAtMs = now + worker.backoffMs;
    worker.connectedAtMs = 0;
    util::inform("mclp-front: shard %zu respawns in %d ms",
                 worker.index, worker.backoffMs);
}

void
ShardForwarder::reapExited()
{
    // An Up worker's death shows on its trunk first (the process's
    // exit closes it), so only workers that are not Up are reaped
    // here. Only our own pids: inside a larger process, waitpid(-1)
    // would steal the exit status of children that are not ours.
    for (Worker &worker : workers_) {
        int status = 0;
        if (worker.pid <= 0 || worker.state == Worker::State::Up ||
            waitpid(worker.pid, &status, WNOHANG) != worker.pid)
            continue;
        worker.pid = -1;
        if (server_->draining()) {
            // No respawn during drain; the shard stays down and
            // finish() judges the cascade.
            worker.state = Worker::State::Killed;
            continue;
        }
        scheduleRespawn(worker);
    }
}

void
ShardForwarder::superviseWorkers()
{
    if (server_->draining())
        return;
    int64_t now = util::monotonicMs();
    for (Worker &worker : workers_) {
        if (worker.state == Worker::State::Backoff &&
            now >= worker.respawnAtMs) {
            // Respawn on the same shard cache dir: nothing is
            // replayed — the shard's own segment makes the restart
            // warm by itself.
            if (!spawnWorker(worker)) {
                worker.backoffMs =
                    std::min(std::max(worker.backoffMs, 1) * 2,
                             opts_.respawnBackoffMaxMs);
                worker.respawnAtMs = now + worker.backoffMs;
            }
        }
        if (worker.state != Worker::State::Starting)
            continue;
        if (connectWorker(worker)) {
            ++worker.restarts;
            ++totalRestarts_;
            util::inform(
                "mclp-front: shard %zu respawned (pid %d, restart %llu)",
                worker.index, static_cast<int>(worker.pid),
                static_cast<unsigned long long>(worker.restarts));
        } else if (now - worker.spawnedAtMs > kConnectDeadlineMs) {
            util::warn("mclp-front: respawned worker %s never came up",
                       worker.socketPath.c_str());
            worker.state = Worker::State::Killed;
            if (worker.pid > 0)
                kill(worker.pid, SIGKILL);
            // The reap reschedules with a doubled backoff.
        }
    }
}

int
ShardForwarder::addPollFds(std::vector<pollfd> &fds)
{
    // One entry per worker in shard order (fd -1, which poll ignores,
    // while a shard has no trunk).
    for (const Worker &worker : workers_) {
        short events = 0;
        if (worker.link)
            events = worker.link->wantsWrite() ? POLLIN | POLLOUT : POLLIN;
        fds.push_back({worker.link ? worker.link->fd() : -1, events, 0});
    }
    // The loop sleeps until traffic — unless supervision has a timer
    // running: a due respawn bounds the sleep, and a dead worker
    // awaiting its reap or a connecting one (its bind is imminent) is
    // polled at a tight cadence.
    int timeout = -1;
    int64_t now = util::monotonicMs();
    for (const Worker &worker : workers_) {
        int wait = -1;
        if (worker.state == Worker::State::Backoff &&
            !server_->draining())
            wait = static_cast<int>(
                std::max<int64_t>(worker.respawnAtMs - now, 1));
        else if (worker.state != Worker::State::Up && worker.pid > 0)
            wait = 20;
        if (wait >= 0 && (timeout < 0 || wait < timeout))
            timeout = wait;
    }
    return timeout;
}

void
ShardForwarder::onPolled(const pollfd *fds, size_t count)
{
    // Trunks before the reap: a worker's last answers may still sit
    // in its socket when it exits.
    for (size_t w = 0; w < count; ++w) {
        if (fds[w].revents & POLLOUT)
            pumpWorker(workers_[w]);
        if (workers_[w].link &&
            (fds[w].revents & (POLLIN | POLLHUP | POLLERR)))
            readWorker(workers_[w]);
    }
    reapExited();
    superviseWorkers();
}

void
ShardForwarder::pumpWorker(Worker &worker)
{
    if (!worker.link)
        return;
    while (worker.link->wantsWrite()) {
        ssize_t sent =
            send(worker.link->fd(), worker.link->writeData(),
                 worker.link->writeBacklog(), MSG_NOSIGNAL);
        if (sent > 0) {
            worker.link->consumeWritten(static_cast<size_t>(sent));
            continue;
        }
        if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                         errno == EINTR))
            return;
        markWorkerDead(worker, "rejected a write");
        return;
    }
}

int
ShardForwarder::finish()
{
    // Close the trunks first (the worker sees a clean client EOF),
    // then cascade the drain signal: each live worker finishes
    // in-flight work, flushes its cache shard, and exits 0. The exit
    // code judges the *cascade*: a crash the supervisor already
    // handled and respawned earlier does not count, a crash during
    // the drain does, and a worker we SIGKILLed ourselves (Killed)
    // was already accounted when it was marked dead. Every client is
    // gone by now, so owed slots are simply dropped.
    for (Worker &worker : workers_) {
        worker.link.reset();
        worker.pending.clear();
        if (worker.pid > 0 && (worker.state == Worker::State::Up ||
                               worker.state == Worker::State::Starting))
            kill(worker.pid, SIGTERM);
    }
    bool all_clean = !crashedDuringDrain_;
    for (Worker &worker : workers_) {
        if (worker.pid <= 0)
            continue;
        int status = 0;
        pid_t got;
        do {
            got = waitpid(worker.pid, &status, 0);
        } while (got < 0 && errno == EINTR);
        bool reaped = got == worker.pid;
        worker.pid = -1;
        if (!reaped) {
            all_clean = false;
            continue;
        }
        if (worker.state != Worker::State::Up)
            continue;  // our own SIGKILL, or a startup torn by drain
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            util::warn("mclp-front: worker %s exited unclean",
                       worker.socketPath.c_str());
            all_clean = false;
        }
    }
    return all_clean ? 0 : 1;
}

} // namespace

std::unique_ptr<Dispatcher>
makeShardForwarder(ShardForwarderOptions options)
{
    return std::make_unique<ShardForwarder>(std::move(options));
}

} // namespace service
} // namespace mclp
