/**
 * @file
 * A non-blocking event-loop HTTP/1.1 server.
 *
 * One loop thread multiplexes every connection through poll():
 * accepting, feeding bytes into per-connection HttpParsers (the same
 * incremental grammar HttpClient reads responses with), and streaming responses back out — no thread per
 * connection, so hundreds of concurrent peers cost hundreds of fds,
 * not hundreds of stacks. Each connection is a small state machine:
 *
 *   reading-request -> dispatching -> writing-response
 *        ^  |  (idle keep-alive is reading-request                |
 *        |  v   with an empty parser)                             |
 *        +--<-----------------------------------------------------+
 *
 * Handlers are plain request->response functions that may block
 * (disk I/O, the claim mutex), so they run on a small dispatch pool;
 * completions return to the loop through a wakeup pipe. Handlers are
 * called concurrently — they synchronize their own shared state,
 * exactly as under the old thread-per-connection model.
 *
 * An idle deadline reaps slow and dead clients: a connection must
 * deliver a *complete* request (and drain its response) within the
 * timeout — partial bytes do not extend it, which is what starves
 * slow-loris clients without stalling anyone else. Dispatching
 * connections are never reaped (the handler owns the clock there).
 *
 * Malformed input drops the connection without a response; keep-alive
 * follows HTTP/1.1 defaults unless either side says Connection: close.
 * stop() is clean and prompt, so tests can start a server on an
 * ephemeral port (port 0 + port()) and tear it down
 * deterministically.
 */

#ifndef SMT_NET_HTTP_SERVER_HH
#define SMT_NET_HTTP_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hh"
#include "net/http.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"

namespace smt::net
{

class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    /**
     * Attach a metrics registry (before start()). The server then
     * maintains `net.connections` / `net.connections.live` /
     * `net.connections.rejected` (over the connection cap),
     * `net.requests`, `net.bytes_in` / `net.bytes_out` (payload
     * bytes in, full serialized response bytes out), and
     * `net.idle_reaped` (connections dropped by the idle deadline).
     */
    void setMetrics(obs::Registry *metrics);

    /**
     * Seconds a connection may sit between complete requests — or
     * take to deliver one, or to drain a response — before the loop
     * reaps it. Partial request bytes do not extend the deadline
     * (the slow-loris defense). <= 0 disables reaping. Default 30.
     * Set before start().
     */
    void setIdleTimeout(double seconds);

    /** Connection cap; peers beyond it are accepted and immediately
     *  closed (counted as rejected). Default 1024. Set before
     *  start(). */
    void setMaxConnections(std::size_t n);

    /** Dispatch-pool width for blocking handlers. Default 4. Set
     *  before start(). */
    void setDispatchThreads(std::size_t n);

    HttpServer() = default;
    ~HttpServer() { stop(); }

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind and start serving. Port 0 binds an ephemeral port (read it
     * back with port()). False with a reason in `error` on failure.
     */
    bool start(const std::string &bind_addr, std::uint16_t port,
               Handler handler, std::string *error = nullptr);

    /** The bound port (valid after a successful start). */
    std::uint16_t port() const { return port_; }

    bool running() const { return running_.load(std::memory_order_acquire); }

    /** Shut down: stop accepting, finish dispatched handlers, drop
     *  every connection, join the loop and pool threads. */
    void stop();

  private:
    using Clock = std::chrono::steady_clock;

    /** One connection's state machine. */
    struct Conn
    {
        enum class State { Reading, Dispatching, Writing };

        Socket sock;
        HttpParser parser;
        State state = State::Reading;
        std::string out;          ///< serialized response being written.
        std::size_t outPos = 0;
        bool closeAfter = false;
        Clock::time_point deadline; ///< idle reap point (Reading/Writing).
    };

    /** A handler's finished work, queued back to the loop. */
    struct Completion
    {
        std::uint64_t id;
        std::string wire;
        bool closeAfter;
    };

    /** Resolved-once instrument slots (null when unattached). */
    struct NetMetrics
    {
        obs::Counter *connections = nullptr;
        obs::Gauge *liveConnections = nullptr;
        obs::Counter *rejectedConnections = nullptr;
        obs::Counter *requests = nullptr;
        obs::Counter *bytesIn = nullptr;
        obs::Counter *bytesOut = nullptr;
        obs::Counter *idleReaped = nullptr;
    };

    void loop();
    void acceptReady();
    void readReady(std::uint64_t id);
    void writeReady(std::uint64_t id);
    void startDispatch(std::uint64_t id, Conn &conn);
    void applyCompletions();
    void reapIdle(Clock::time_point now);
    void closeConn(std::uint64_t id);
    void armIdleDeadline(Conn &conn, Clock::time_point now);

    Handler handler_;
    NetMetrics metrics_;
    Socket listener_;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    double idleTimeout_ = 30.0;
    std::size_t maxConns_ = 1024;
    std::size_t dispatchThreads_ = 4;

    std::thread loopThread_;
    WakeupPipe wake_;
    DispatchPool pool_;

    // Loop-thread-only connection table.
    std::uint64_t nextConn_ = 0;
    std::map<std::uint64_t, Conn> conns_;

    // Handler threads -> loop thread.
    std::mutex doneMu_;
    std::vector<Completion> done_;
};

} // namespace smt::net

#endif // SMT_NET_HTTP_SERVER_HH
