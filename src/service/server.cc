#include "service/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <utility>

#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace mclp {
namespace service {

namespace {

/** How long the listeners sit out of the poll set after accept() ran
 * out of file descriptors. */
constexpr int64_t kAcceptBackoffMs = 100;

/** The running binary's name: mclp-serve and mclp-front both run this
 * loop, and its warnings say which one is talking. */
const char *
binaryName()
{
    return program_invocation_short_name;
}

/**
 * The local crew: worker threads that execute admitted lines on a
 * DseService. The poll thread never executes requests, so a stuck
 * optimization can never stall accepts, reads, writes, or timeouts.
 */
class LocalCrew final : public Dispatcher
{
  public:
    explicit LocalCrew(DseService &service) : service_(service) {}

    ~LocalCrew() override
    {
        stop();
        service_.attachTransportStats(nullptr);
    }

    bool start(Server &server) override
    {
        server_ = &server;
        service_.attachTransportStats(&server.stats());
        for (int i = util::resolveThreads(service_.options().threads);
             i > 0; --i)
            threads_.emplace_back([this] { work(); });
        return true;
    }

    void dispatch(Ticket ticket, std::string line) override
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            tasks_.emplace_back(std::move(ticket), std::move(line));
        }
        ready_.notify_one();
    }

    int finish() override
    {
        // Drain order: the crew empties the task queue first, and only
        // then is the persistent cache flushed — so a flush never
        // races an in-flight request's row insertions.
        stop();
        service_.flushCache();
        return 0;
    }

  private:
    void work()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            ready_.wait(lock,
                        [this] { return !tasks_.empty() || stopping_; });
            // Drain before exiting: admitted work always finishes,
            // even when its connection was hard-closed meanwhile.
            if (tasks_.empty())
                return;
            std::pair<Ticket, std::string> task = std::move(tasks_.front());
            tasks_.pop_front();
            lock.unlock();
            server_->complete(task.first, service_.handleLine(task.second));
            lock.lock();
        }
    }

    void stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        ready_.notify_all();
        for (std::thread &thread : threads_)
            thread.join();
        threads_.clear();
    }

    DseService &service_;
    Server *server_ = nullptr;
    std::mutex mutex_;  ///< guards tasks_ and stopping_
    std::condition_variable ready_;
    std::deque<std::pair<Ticket, std::string>> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace

const char kTransportFlagsHelp[] =
    "transport (the per-connection policies apply to every socket\n"
    "client):\n"
    "  --socket PATH        listen on a Unix stream socket\n"
    "  --tcp-port N         also listen on loopback TCP port N\n"
    "                       (0 = ephemeral; the bound port is\n"
    "                       printed to stderr)\n"
    "  --max-line-bytes N   request lines past N bytes answer\n"
    "                       'err ... msg=line-too-long' (default\n"
    "                       1048576)\n"
    "  --max-pipeline N     per-connection in-flight cap; excess\n"
    "                       lines shed 'err ... msg=busy'\n"
    "                       (default 64)\n"
    "  --max-inflight N     global in-flight cap across all\n"
    "                       connections (default 256)\n"
    "  --read-timeout-ms N  drop a connection whose partial\n"
    "                       request line is older than N ms\n"
    "                       (slow-loris guard; default 30000;\n"
    "                       0 = off)\n"
    "  --idle-timeout-ms N  drop a fully idle connection after\n"
    "                       N ms (default 0 = off)\n";

bool
parseTransportFlag(int argc, char **argv, int &i, Server::Options &options)
{
    std::string arg = argv[i];
    auto value = [&]() -> const char * {
        if (i + 1 >= argc)
            util::fatal("%s needs a value", arg.c_str());
        return argv[++i];
    };
    auto int_value = [&](int64_t min, int64_t max) {
        return static_cast<int>(
            util::parseIntFlag(arg.c_str(), value(), min, max));
    };
    if (arg == "--socket")
        options.unixPath = value();
    else if (arg == "--tcp-port")
        options.tcpPort = int_value(0, 65535);
    else if (arg == "--max-line-bytes")
        options.maxLineBytes = static_cast<size_t>(int_value(64, 1 << 30));
    else if (arg == "--max-pipeline")
        options.maxPipeline = int_value(1, 1 << 20);
    else if (arg == "--max-inflight")
        options.maxInflight = int_value(1, 1 << 20);
    else if (arg == "--read-timeout-ms")
        options.readTimeoutMs = int_value(0, 1 << 30);
    else if (arg == "--idle-timeout-ms")
        options.idleTimeoutMs = int_value(0, 1 << 30);
    else
        return false;
    return true;
}

Server *Server::signalTarget_ = nullptr;

void
Server::sigtermHandler(int)
{
    // Async-signal-safe by construction: one store to a sig_atomic_t
    // flag plus one write() down the self-pipe.
    Server *target = signalTarget_;
    if (target) {
        target->sigtermSeen_ = 1;
        target->wake_.notify();
    }
}

Server::Server(DseService &service, Options options)
    : dispatcher_(nullptr), options_(std::move(options)),
      ownedDispatcher_(std::make_unique<LocalCrew>(service))
{
    dispatcher_ = ownedDispatcher_.get();
    open();
}

Server::Server(Dispatcher &dispatcher, Options options)
    : dispatcher_(&dispatcher), options_(std::move(options))
{
    open();
}

void
Server::open()
{
    if (!wake_.valid()) {
        startError_ = "self-pipe creation failed";
        util::warn("%s: %s", binaryName(), startError_.c_str());
        return;
    }
    // The handler goes in before the dispatcher starts: a SIGTERM
    // that lands while the front's workers come up still drains them.
    if (options_.handleSigterm) {
        signalTarget_ = this;
        struct sigaction action
        {
        };
        action.sa_handler = &Server::sigtermHandler;
        sigemptyset(&action.sa_mask);
        ::sigaction(SIGTERM, &action, &oldTerm_);
    }
    if (!dispatcher_->start(*this)) {
        startError_ = "dispatcher failed to start";
        return;
    }
    std::string error;
    auto keep = [&](int fd, util::ScopedFd &listener) {
        if (fd < 0) {
            startError_ = error;
            util::warn("%s: %s", binaryName(), error.c_str());
            return false;
        }
        // Non-blocking listeners: acceptPending() drains until
        // EAGAIN, which a blocking accept would turn into a hang.
        util::setNonBlocking(fd);
        listener.reset(fd);
        return true;
    };
    if (!options_.unixPath.empty() &&
        !keep(util::listenUnix(options_.unixPath, &error), unixListener_))
        return;
    if (options_.tcpPort >= 0 &&
        !keep(util::listenTcp(static_cast<uint16_t>(options_.tcpPort),
                              &tcpPort_, &error),
              tcpListener_))
        return;
    if (!unixListener_.valid() && !tcpListener_.valid()) {
        startError_ = "no listeners configured (need a socket path "
                      "or a TCP port)";
        util::warn("%s: %s", binaryName(), startError_.c_str());
    }
}

Server::~Server()
{
    if (unixListener_.valid())
        ::unlink(options_.unixPath.c_str());
    if (signalTarget_ == this) {
        ::sigaction(SIGTERM, &oldTerm_, nullptr);
        signalTarget_ = nullptr;
    }
}

void
Server::requestDrain()
{
    drainRequested_.store(true, std::memory_order_release);
    wake_.notify();
}

void
Server::complete(const Ticket &ticket, std::string response)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ticket.conn->complete(ticket.seq, std::move(response));
        --ticket.conn->inflight;
        --globalInflight_;
    }
    // The poll thread moves finished responses out at the top of every
    // iteration; only a completion from another thread must wake it.
    if (std::this_thread::get_id() != pollThread_)
        wake_.notify();
}

bool
Server::acceptingClosed() const
{
    return options_.acceptLimit >= 0 &&
           acceptedTotal_ >=
               static_cast<uint64_t>(options_.acceptLimit);
}

void
Server::respondNow(const std::shared_ptr<Connection> &conn,
                   const std::string &response)
{
    // Immediate answers still go through the reorder buffer so they
    // interleave with dispatched work in strict request order.
    std::lock_guard<std::mutex> lock(mutex_);
    conn->complete(conn->allocSeq(), response);
}

void
Server::handleLine(const std::shared_ptr<Connection> &conn,
                   std::string line, bool overlong)
{
    if (overlong) {
        stats_.shedOversize.fetch_add(1, std::memory_order_relaxed);
        respondNow(conn, "err id=" + scavengeId(line) +
                             " msg=line-too-long");
        return;
    }
    std::string text = trimmedLine(line);
    if (text.empty() || text[0] == '#')
        return;  // never answered, so no sequence slot either
    if (text == "shutdown") {
        respondNow(conn, "ok shutdown");
        draining_ = true;
        return;
    }
    Ticket ticket{conn, 0};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool shed =
            conn->inflight >= options_.maxPipeline ||
            globalInflight_ >= options_.maxInflight;
        if (shed) {
            // Shed *now*, in sequence: the client learns immediately,
            // and the error slots into the pipeline where the answer
            // would have gone.
            stats_.shedBusy.fetch_add(1, std::memory_order_relaxed);
            conn->complete(conn->allocSeq(),
                           "err id=" + scavengeId(text) + " msg=busy");
            return;
        }
        stats_.requests.fetch_add(1, std::memory_order_relaxed);
        ticket.seq = conn->allocSeq();
        ++conn->inflight;
        ++globalInflight_;
    }
    dispatcher_->dispatch(std::move(ticket), std::move(text));
}

void
Server::acceptPending(int listen_fd)
{
    while (!draining_ && !acceptingClosed()) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            int err = errno;
            if (err == EINTR)
                continue;
            if (err == EMFILE || err == ENFILE) {
                // The pending connection stays queued and the listener
                // readable, so polling it now would wake the loop at
                // once, forever: back off instead, and say so once.
                if (acceptPausedUntilMs_ == 0)
                    util::warn("%s: accept(): %s; pausing accepts "
                               "until a descriptor frees up",
                               binaryName(), std::strerror(err));
                acceptPausedUntilMs_ =
                    util::monotonicMs() + kAcceptBackoffMs;
            } else if (err != EAGAIN && err != EWOULDBLOCK) {
                util::warn("%s: accept(): %s", binaryName(),
                           std::strerror(err));
            }
            return;
        }
        acceptPausedUntilMs_ = 0;  // any exhaustion episode is over
        if (!util::setNonBlocking(fd)) {
            util::warn("%s: accepted fd: %s", binaryName(),
                       std::strerror(errno));
            ::close(fd);
            continue;
        }
        uint64_t id = nextConnId_++;
        conns_.emplace(id, std::make_shared<Connection>(
                               fd, id, options_.maxLineBytes));
        ++acceptedTotal_;
        stats_.connsAccepted.fetch_add(1, std::memory_order_relaxed);
        stats_.connsOpen.fetch_add(1, std::memory_order_relaxed);
    }
}

void
Server::onReadable(const std::shared_ptr<Connection> &conn)
{
    char buffer[64 * 1024];
    while (!conn->closing) {
        ssize_t got = ::read(conn->fd(), buffer, sizeof(buffer));
        if (got > 0) {
            conn->ingest(buffer, static_cast<size_t>(got));
            std::string line;
            Connection::LineStatus status;
            while ((status = conn->nextLine(&line)) !=
                   Connection::LineStatus::None) {
                handleLine(conn, std::move(line),
                           status == Connection::LineStatus::Overlong);
                line.clear();
            }
            if (static_cast<size_t>(got) < sizeof(buffer))
                return;  // short read: the socket is drained
            continue;
        }
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            // A dying client (ECONNRESET et al.) costs only its own
            // connection, never the server.
            util::warn("%s: read(): %s", binaryName(),
                       std::strerror(errno));
            conn->closing = true;
            return;
        }
        // EOF: the batch protocol answers a trailing line without a
        // newline rather than dropping it.
        conn->peerClosed = true;
        std::string remainder;
        if (conn->takeEofRemainder(&remainder))
            handleLine(conn, std::move(remainder), false);
        return;
    }
}

void
Server::pumpOut(const std::shared_ptr<Connection> &conn)
{
    while (conn->wantsWrite() && !conn->closing) {
        // MSG_NOSIGNAL: a peer that died mid-response surfaces as
        // EPIPE, never a process-killing SIGPIPE (the library must
        // not rely on the front end's signal disposition).
        ssize_t put = ::send(conn->fd(), conn->writeData(),
                             conn->writeBacklog(), MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            util::warn("%s: client dropped mid-response "
                       "(%zu bytes unsent): %s", binaryName(),
                       conn->writeBacklog(), std::strerror(errno));
            conn->closing = true;
            return;
        }
        conn->touch();
        conn->consumeWritten(static_cast<size_t>(put));
    }
}

void
Server::closeConnection(uint64_t id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    // Workers may still hold this connection (shared_ptr); shut the
    // socket down now so the peer sees the close immediately — the
    // object (and fd) dies when the last in-flight task completes
    // into its orphaned reorder buffer.
    ::shutdown(it->second->fd(), SHUT_RDWR);
    conns_.erase(it);
    stats_.connsOpen.fetch_sub(1, std::memory_order_relaxed);
}

bool
Server::sweepAndCheckExit()
{
    std::vector<uint64_t> dead;
    for (const auto &kv : conns_) {
        const std::shared_ptr<Connection> &conn = kv.second;
        if (conn->closing) {
            // Errors and timeouts are hard closes: unsent output and
            // in-flight answers are forfeit by definition.
            dead.push_back(kv.first);
            continue;
        }
        bool flushed;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            flushed = !conn->hasUnanswered();
        }
        flushed = flushed && !conn->wantsWrite();
        // A half-closed batch client is done once every admitted line
        // was answered and written; under drain every connection is
        // done at that point (nothing new is being read).
        if (flushed && (conn->peerClosed || draining_))
            dead.push_back(kv.first);
    }
    for (uint64_t id : dead)
        closeConnection(id);
    return conns_.empty() && (draining_ || acceptingClosed());
}

int
Server::pollTimeoutMs() const
{
    if (options_.readTimeoutMs <= 0 && options_.idleTimeoutMs <= 0)
        return -1;
    int64_t now = util::monotonicMs();
    int64_t earliest = -1;
    for (const auto &kv : conns_) {
        const std::shared_ptr<Connection> &conn = kv.second;
        if (options_.readTimeoutMs > 0 && conn->lineStartMs() >= 0) {
            int64_t deadline =
                conn->lineStartMs() + options_.readTimeoutMs;
            if (earliest < 0 || deadline < earliest)
                earliest = deadline;
        }
        if (options_.idleTimeoutMs > 0) {
            int64_t deadline =
                conn->lastActivityMs() + options_.idleTimeoutMs;
            if (earliest < 0 || deadline < earliest)
                earliest = deadline;
        }
    }
    if (earliest < 0)
        return -1;
    return static_cast<int>(
        std::max<int64_t>(0, std::min<int64_t>(earliest - now, 60000)));
}

void
Server::enforceDeadlines()
{
    if (options_.readTimeoutMs <= 0 && options_.idleTimeoutMs <= 0)
        return;
    int64_t now = util::monotonicMs();
    for (const auto &kv : conns_) {
        const std::shared_ptr<Connection> &conn = kv.second;
        if (conn->closing)
            continue;
        // Slow-loris guard: the deadline anchors at the partial
        // line's first byte, so dripping one byte at a time cannot
        // extend it.
        if (options_.readTimeoutMs > 0 && conn->lineStartMs() >= 0 &&
            now - conn->lineStartMs() > options_.readTimeoutMs) {
            stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
            conn->closing = true;
            continue;
        }
        if (options_.idleTimeoutMs > 0 && !conn->hasPartialLine() &&
            !conn->wantsWrite() &&
            now - conn->lastActivityMs() > options_.idleTimeoutMs) {
            bool idle;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                idle = !conn->hasUnanswered();
            }
            if (idle) {
                stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
                conn->closing = true;
            }
        }
    }
}

int
Server::run()
{
    if (!listening())
        return 1;
    pollThread_ = std::this_thread::get_id();

    std::vector<pollfd> pfds;
    std::vector<std::shared_ptr<Connection>> polled;
    while (true) {
        // Move finished responses through each reorder buffer into the
        // write queues, then push bytes until the sockets block.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto &kv : conns_)
                kv.second->flushReady();
        }
        for (const auto &kv : conns_)
            pumpOut(kv.second);

        if (sweepAndCheckExit())
            break;

        pfds.clear();
        polled.clear();
        size_t fixed = 0;
        pfds.push_back({wake_.readFd(), POLLIN, 0});
        ++fixed;
        bool accepting = !draining_ && !acceptingClosed();
        int64_t accept_wait_ms =
            accepting && acceptPausedUntilMs_ > 0
                ? acceptPausedUntilMs_ - util::monotonicMs()
                : 0;
        if (accept_wait_ms > 0)
            accepting = false;
        int unix_idx = -1, tcp_idx = -1;
        if (accepting && unixListener_.valid()) {
            unix_idx = static_cast<int>(pfds.size());
            pfds.push_back({unixListener_.get(), POLLIN, 0});
            ++fixed;
        }
        if (accepting && tcpListener_.valid()) {
            tcp_idx = static_cast<int>(pfds.size());
            pfds.push_back({tcpListener_.get(), POLLIN, 0});
            ++fixed;
        }
        for (const auto &kv : conns_) {
            const std::shared_ptr<Connection> &conn = kv.second;
            short events = 0;
            // Write backpressure: a client that stops reading stops
            // being read from — admitted work still completes and
            // parks in the reorder buffer, which the pipeline cap
            // bounds — and never stalls anyone else.
            if (!conn->peerClosed && !conn->closing && !draining_ &&
                conn->writeBacklog() < options_.maxWriteBufferBytes)
                events |= POLLIN;
            if (conn->wantsWrite())
                events |= POLLOUT;
            if (events == 0)
                continue;
            pfds.push_back({conn->fd(), events, 0});
            polled.push_back(conn);
        }
        size_t dispatcher_base = pfds.size();
        int timeout = pollTimeoutMs();
        int dispatcher_timeout = dispatcher_->addPollFds(pfds);
        if (timeout < 0 ||
            (dispatcher_timeout >= 0 && dispatcher_timeout < timeout))
            timeout = dispatcher_timeout;
        // Paused listeners rejoin the poll set when the backoff ends.
        if (accept_wait_ms > 0 &&
            (timeout < 0 || accept_wait_ms < timeout))
            timeout = static_cast<int>(accept_wait_ms);

        int ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()), timeout);
        if (ready < 0 && errno != EINTR) {
            util::warn("%s: poll(): %s", binaryName(),
                       std::strerror(errno));
            break;
        }

        if (pfds[0].revents)
            wake_.drain();
        if (sigtermSeen_ ||
            drainRequested_.load(std::memory_order_acquire))
            draining_ = true;
        dispatcher_->onPolled(pfds.data() + dispatcher_base,
                              pfds.size() - dispatcher_base);

        if (unix_idx >= 0 && (pfds[unix_idx].revents & POLLIN))
            acceptPending(unixListener_.get());
        if (tcp_idx >= 0 && (pfds[tcp_idx].revents & POLLIN))
            acceptPending(tcpListener_.get());

        for (size_t i = fixed; i < dispatcher_base; ++i) {
            const std::shared_ptr<Connection> &conn = polled[i - fixed];
            if (pfds[i].revents & (POLLIN | POLLHUP))
                onReadable(conn);
            if (pfds[i].revents & POLLOUT)
                pumpOut(conn);
            if ((pfds[i].revents & (POLLERR | POLLNVAL)) &&
                !conn->peerClosed)
                conn->closing = true;
        }

        enforceDeadlines();
    }

    // Exit epilogue, in drain order: listeners are already effectively
    // closed (nothing polls them) and every connection is done; the
    // dispatcher's own epilogue runs last and names the exit code.
    if (unixListener_.valid()) {
        unixListener_.reset();
        ::unlink(options_.unixPath.c_str());
    }
    tcpListener_.reset();
    return dispatcher_->finish();
}

} // namespace service
} // namespace mclp
