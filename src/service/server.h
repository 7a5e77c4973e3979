/**
 * @file
 * The event-driven serving loop: one poll()-based thread owning many
 * concurrent Unix and TCP client connections, the policies that keep
 * a long-lived process healthy under hostile or overloaded clients,
 * and the dispatch seam that decides who answers an admitted line.
 *
 * Two dispatchers implement the seam. The local crew
 * (Server(DseService &, ...), run by mclp-serve) executes lines on a
 * worker-thread crew over a DseService. The shard forwarder
 * (service/shard_forwarder.h, run by mclp-front) forwards them to K
 * supervised mclp-serve processes. Everything the loop does to a
 * client line happens here, once, whichever dispatcher answers it.
 *
 * What the loop guarantees (tests/service/test_server.cc proves each
 * against both dispatchers, and the chaos client + CI fault-injection
 * steps re-prove them against a real mclp-serve and mclp-front):
 *
 *  - **Pipelining.** Request lines are answered as they arrive, not
 *    at connection EOF; a per-connection reorder buffer
 *    (service/connection.h) delivers responses strictly in request
 *    order, so every response is byte-identical to the serial
 *    `mclp-opt --response` answer no matter how the workers
 *    interleaved.
 *  - **Isolation.** A slow, dead, or malicious client costs only its
 *    own connection: reads and writes are non-blocking, a client
 *    that stops reading trips write backpressure (the server stops
 *    reading *from it*, never stalls others), a request line past
 *    the length cap answers `err ... msg=line-too-long` and the
 *    connection stays usable, and partial lines older than the read
 *    timeout (slow-loris) or fully idle connections past the idle
 *    timeout are dropped.
 *  - **Admission control.** In-flight work is bounded per connection
 *    (pipeline depth) and globally; excess lines are shed
 *    *immediately* with `err ... msg=busy` instead of queueing
 *    unboundedly. Shedding is load-dependent by design — the only
 *    wire form it ever takes is the busy error, never a wrong or
 *    reordered answer.
 *  - **Fd exhaustion.** When accept() fails for want of file
 *    descriptors (EMFILE/ENFILE), the listeners leave the poll set
 *    for a short backoff instead of waking the loop at once, forever;
 *    connections already accepted are served meanwhile, and the
 *    episode is warned about once.
 *  - **Graceful drain.** A `shutdown` line, SIGTERM (opt-in), or
 *    requestDrain() stops accepting, lets every admitted request
 *    finish and flush, closes connections, and ends in the
 *    dispatcher's epilogue: the local crew flushes the persistent
 *    frontier cache and returns 0; the forwarder cascades the drain
 *    to its workers.
 *
 * The loop is deliberately poll(2), not epoll: the math answers in
 * milliseconds, so realistic connection counts are tens, not tens of
 * thousands, and poll keeps the loop portable and the fd set
 * trivially consistent (rebuilt per iteration from live state).
 */

#ifndef MCLP_SERVICE_SERVER_H
#define MCLP_SERVICE_SERVER_H

#include <poll.h>
#include <signal.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/connection.h"
#include "service/dse_service.h"
#include "util/net.h"

namespace mclp {
namespace service {

class Server;

/** One admitted line's response slot, completed through
 * Server::complete(). */
struct Ticket
{
    std::shared_ptr<Connection> conn;
    uint64_t seq = 0;
};

/**
 * Who answers an admitted line. The server calls every hook on its
 * poll thread; Server::complete() may be called from any thread.
 */
class Dispatcher
{
  public:
    Dispatcher() = default;
    virtual ~Dispatcher() = default;
    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Called once from the Server constructor, before the listeners
     * bind, so a bound socket means "ready to answer". False fails
     * the server (listening() is false); the reason was warn()ed. */
    virtual bool start(Server &server) = 0;

    /** Answer @p line (trimmed; never blank, a comment or `shutdown`)
     * exactly once, now or later, through Server::complete(). */
    virtual void dispatch(Ticket ticket, std::string line) = 0;

    /** Append fds to the loop's poll(2) set; return how long the loop
     * may sleep before this dispatcher's next timer (-1 = no limit). */
    virtual int addPollFds(std::vector<pollfd> &) { return -1; }

    /** After every poll: the entries addPollFds() appended, revents
     * filled in. Runs each iteration, so timers fire here too. */
    virtual void onPolled(const pollfd *, size_t) {}

    /** The last step of run(), after every connection closed and the
     * listeners are gone; returns run()'s exit code. */
    virtual int finish() = 0;
};

class Server
{
  public:
    struct Options
    {
        /** Unix stream socket path; empty = no Unix listener. */
        std::string unixPath;

        /** Loopback TCP port (0 = kernel-assigned ephemeral port,
         * see tcpPort()); -1 = no TCP listener. */
        int tcpPort = -1;

        /** Stop accepting after this many connections and exit once
         * they close (-1 = serve until drain). The mclp-serve
         * --accept flag and the one-batch tests use this. */
        int acceptLimit = -1;

        /** Request lines longer than this answer
         * `err ... msg=line-too-long` (the rest of the line is
         * discarded; the connection stays usable). */
        size_t maxLineBytes = 1 << 20;

        /** Write backpressure high-water mark: while a connection's
         * unsent responses exceed this, the server stops *reading*
         * from it (admitted work still completes and parks in the
         * reorder buffer, which the pipeline cap bounds). */
        size_t maxWriteBufferBytes = 4u << 20;

        /** Per-connection pipeline depth: lines admitted while this
         * many are in flight on the same connection shed with
         * `err ... msg=busy`. */
        int maxPipeline = 64;

        /** Global in-flight cap across all connections (queued +
         * executing); excess sheds with `err ... msg=busy`. */
        int maxInflight = 256;

        /** Close a connection whose *partial* request line is older
         * than this (slow-loris guard; 0 = disabled). The deadline
         * anchors at the line's first byte, so dripping bytes cannot
         * extend it. */
        int readTimeoutMs = 30000;

        /** Close a connection with no buffered input, no in-flight
         * work, and no unsent output after this long (0 = disabled). */
        int idleTimeoutMs = 0;

        /** Install a SIGTERM handler for the server's lifetime that
         * triggers a graceful drain (mclp-serve and mclp-front set
         * this; embedded servers and tests use requestDrain()). */
        bool handleSigterm = false;
    };

    /**
     * A server whose lines run on a local worker crew over @p service
     * (mclp-serve). The crew has ServiceOptions::threads threads (0 =
     * hardware concurrency); the poll thread never executes requests,
     * so a stuck optimization can never stall accepts, reads, or
     * timeouts. The `stats` verb reports this server's transport
     * counters. @p service must outlive the server.
     */
    Server(DseService &service, Options options);

    /**
     * A server over any dispatcher (mclp-front passes the shard
     * forwarder); @p dispatcher must outlive the server. Both
     * constructors start the dispatcher, then bind the listeners (so
     * tcpPort() is valid and bind failures surface before run()).
     */
    Server(Dispatcher &dispatcher, Options options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** False when the dispatcher or a listener failed to start (run()
     * would return 1); the reason was warn()ed. */
    bool listening() const { return startError_.empty(); }

    /** The bound TCP port (resolves port 0), 0 without a TCP
     * listener. Valid right after construction. */
    uint16_t tcpPort() const { return tcpPort_; }

    /**
     * Run the event loop until drained (shutdown verb, SIGTERM,
     * requestDrain()) or the accept limit is exhausted. Returns the
     * dispatcher's exit code (the local crew's is 0 once in-flight
     * work finished and the cache flushed), 1 when a listener
     * failed. Call once.
     */
    int run();

    /** Begin a graceful drain; safe from any thread. */
    void requestDrain();

    /** Deliver @p response into @p ticket's slot and release its
     * admission; safe from any thread. */
    void complete(const Ticket &ticket, std::string response);

    const Options &options() const { return options_; }
    const TransportStats &stats() const { return stats_; }

    /** Whether a drain began (shutdown verb, SIGTERM, requestDrain());
     * poll thread only, so dispatcher hooks may read it. */
    bool draining() const { return draining_; }

  private:
    /** Shared constructor tail: SIGTERM handler, dispatcher start,
     * listeners. */
    void open();
    void acceptPending(int listen_fd);
    void onReadable(const std::shared_ptr<Connection> &conn);
    void handleLine(const std::shared_ptr<Connection> &conn,
                    std::string line, bool overlong);
    /** Queue an immediate (non-dispatched) response in order. */
    void respondNow(const std::shared_ptr<Connection> &conn,
                    const std::string &response);
    /** Move ready responses to the write queue and push bytes until
     * EAGAIN; write errors mark the connection closing. */
    void pumpOut(const std::shared_ptr<Connection> &conn);
    void closeConnection(uint64_t id);
    /** Close finished/broken connections; returns true when the
     * loop should exit. */
    bool sweepAndCheckExit();
    int pollTimeoutMs() const;
    void enforceDeadlines();
    bool acceptingClosed() const;

    Dispatcher *dispatcher_;
    Options options_;
    std::string startError_;

    util::ScopedFd unixListener_;
    util::ScopedFd tcpListener_;
    uint16_t tcpPort_ = 0;
    util::SelfPipe wake_;

    std::map<uint64_t, std::shared_ptr<Connection>> conns_;
    uint64_t nextConnId_ = 1;
    uint64_t acceptedTotal_ = 0;
    /** Out of fds since the last successful accept: the listeners
     * stay unpolled until this util::monotonicMs() time. 0 = no
     * exhaustion episode (each episode is warned about once). */
    int64_t acceptPausedUntilMs_ = 0;
    bool draining_ = false;
    std::atomic<bool> drainRequested_{false};
    volatile std::sig_atomic_t sigtermSeen_ = 0;
    struct sigaction oldTerm_
    {
    };
    std::thread::id pollThread_;

    /** Guards globalInflight_ and every Connection's reorder buffer +
     * inflight count (the state completions touch from any thread).
     * Sockets and read buffers are poll-thread-only and need no
     * lock. */
    std::mutex mutex_;
    int globalInflight_ = 0;

    TransportStats stats_;

    /** The local crew, when this server owns its dispatcher. Declared
     * last, so it is destroyed first: its threads join while the
     * server they complete into is still whole. */
    std::unique_ptr<Dispatcher> ownedDispatcher_;

    static Server *signalTarget_;
    static void sigtermHandler(int);
};

/**
 * If argv[@p i] is one of the transport flags mclp-serve and
 * mclp-front share, parse it (and its value, moving @p i past it)
 * into @p options and return true; false leaves both untouched. A
 * missing or out-of-range value is fatal().
 */
bool parseTransportFlag(int argc, char **argv, int &i,
                        Server::Options &options);

/** The --help block documenting every flag parseTransportFlag()
 * accepts, with its default. */
extern const char kTransportFlagsHelp[];

} // namespace service
} // namespace mclp

#endif // MCLP_SERVICE_SERVER_H
