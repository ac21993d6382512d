#include "net/http_server.hh"

#include <poll.h>

#include <cerrno>

#include "common/logging.hh"

namespace smt::net
{

void
HttpServer::setMetrics(obs::Registry *metrics)
{
    smt_assert(!running(), "attach metrics before start()");
    if (metrics == nullptr) {
        metrics_ = NetMetrics{};
        return;
    }
    metrics_.connections = &metrics->counter("net.connections");
    metrics_.liveConnections = &metrics->gauge("net.connections.live");
    metrics_.rejectedConnections =
        &metrics->counter("net.connections.rejected");
    metrics_.requests = &metrics->counter("net.requests");
    metrics_.bytesIn = &metrics->counter("net.bytes_in");
    metrics_.bytesOut = &metrics->counter("net.bytes_out");
    metrics_.idleReaped = &metrics->counter("net.idle_reaped");
}

void
HttpServer::setIdleTimeout(double seconds)
{
    smt_assert(!running(), "configure before start()");
    idleTimeout_ = seconds;
}

void
HttpServer::setMaxConnections(std::size_t n)
{
    smt_assert(!running(), "configure before start()");
    maxConns_ = n;
}

void
HttpServer::setDispatchThreads(std::size_t n)
{
    smt_assert(!running(), "configure before start()");
    dispatchThreads_ = n == 0 ? 1 : n;
}

bool
HttpServer::start(const std::string &bind_addr, std::uint16_t port,
                  Handler handler, std::string *error)
{
    smt_assert(!running(), "HttpServer started twice");
    listener_ = listenTcp(bind_addr, port, 512, error);
    if (!listener_.valid())
        return false;
    if (!listener_.setNonBlocking()) {
        if (error != nullptr)
            *error = "cannot make listener non-blocking";
        listener_.close();
        return false;
    }
    if (!wake_.open(error)) {
        listener_.close();
        return false;
    }
    port_ = boundPort(listener_);
    handler_ = std::move(handler);
    pool_.start(dispatchThreads_);
    running_.store(true, std::memory_order_release);
    loopThread_ = std::thread([this] { loop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!running())
        return;
    running_.store(false, std::memory_order_release);
    wake_.notify();
    loopThread_.join();
    // Finish every handler already dispatched (their completions land
    // in done_ and are discarded with it).
    pool_.stop();
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        done_.clear();
    }
    // Live connections learn of the shutdown by the close itself.
    if (metrics_.liveConnections != nullptr)
        metrics_.liveConnections->add(
            -static_cast<std::int64_t>(conns_.size()));
    conns_.clear();
    listener_.close();
    wake_.close();
}

void
HttpServer::armIdleDeadline(Conn &conn, Clock::time_point now)
{
    if (idleTimeout_ > 0)
        conn.deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(idleTimeout_));
}

void
HttpServer::loop()
{
    std::vector<struct pollfd> pfds;
    std::vector<std::uint64_t> ids; // pfds[i + 2] watches ids[i].

    while (running()) {
        pfds.clear();
        ids.clear();
        pfds.push_back({wake_.readFd(), POLLIN, 0});
        pfds.push_back({listener_.fd(), POLLIN, 0});

        bool have_deadline = false;
        Clock::time_point next_deadline{};
        for (auto &[id, conn] : conns_) {
            short events = 0;
            if (conn.state == Conn::State::Reading)
                events = POLLIN;
            else if (conn.state == Conn::State::Writing)
                events = POLLOUT;
            else
                continue; // Dispatching: the handler owns the clock.
            pfds.push_back({conn.sock.fd(), events, 0});
            ids.push_back(id);
            if (idleTimeout_ > 0
                && (!have_deadline || conn.deadline < next_deadline)) {
                next_deadline = conn.deadline;
                have_deadline = true;
            }
        }

        int timeout_ms = -1;
        if (have_deadline) {
            const auto until = std::chrono::duration_cast<
                std::chrono::milliseconds>(next_deadline
                                           - Clock::now());
            // +1 rounds up so an expired deadline is seen as expired
            // on the wake rather than spinning at 0ms repeatedly.
            timeout_ms = static_cast<int>(
                std::max<long long>(0, until.count() + 1));
        }

        const int n = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()),
                             timeout_ms);
        if (!running())
            return;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // unrecoverable poll failure.
        }

        if (pfds[0].revents != 0)
            wake_.drain();
        applyCompletions();

        for (std::size_t i = 0; i < ids.size(); ++i) {
            const short revents = pfds[i + 2].revents;
            if (revents == 0)
                continue;
            const std::uint64_t id = ids[i];
            const auto it = conns_.find(id);
            if (it == conns_.end())
                continue; // closed by a completion this iteration.
            if (it->second.state == Conn::State::Reading)
                readReady(id);
            else if (it->second.state == Conn::State::Writing)
                writeReady(id);
        }

        if (pfds[1].revents != 0)
            acceptReady();

        if (idleTimeout_ > 0)
            reapIdle(Clock::now());
    }
}

void
HttpServer::acceptReady()
{
    while (true) {
        Socket conn = acceptConn(listener_);
        if (!conn.valid())
            return; // EAGAIN (drained) or listener gone.
        if (conns_.size() >= maxConns_) {
            // Accept-and-close beats leaving the peer in the backlog
            // forever: it learns immediately and can back off.
            if (metrics_.rejectedConnections != nullptr)
                metrics_.rejectedConnections->inc();
            continue;
        }
        if (!conn.setNonBlocking())
            continue;
        if (metrics_.connections != nullptr) {
            metrics_.connections->inc();
            metrics_.liveConnections->add(1);
        }
        const std::uint64_t id = nextConn_++;
        Conn &c = conns_[id];
        c.sock = std::move(conn);
        c.state = Conn::State::Reading;
        armIdleDeadline(c, Clock::now());
    }
}

void
HttpServer::readReady(std::uint64_t id)
{
    Conn &conn = conns_.at(id);
    char buf[16 * 1024];
    while (true) {
        const long n = conn.sock.recvSome(buf, sizeof buf);
        if (n > 0) {
            const HttpParser::Status st =
                conn.parser.feed(buf, static_cast<std::size_t>(n));
            if (st == HttpParser::Status::Complete) {
                startDispatch(id, conn);
                return;
            }
            if (st == HttpParser::Status::Error) {
                // Malformed input: drop without a response.
                closeConn(id);
                return;
            }
            continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            closeConn(id); // orderly close, or a real socket error.
            return;
        }
        return; // EAGAIN: the kernel buffer is drained for now.
    }
}

void
HttpServer::startDispatch(std::uint64_t id, Conn &conn)
{
    conn.state = Conn::State::Dispatching;
    HttpRequest req = conn.parser.takeRequest();
    pool_.submit([this, id, req = std::move(req)]() mutable {
        HttpResponse resp = handler_(req);
        const bool close_after =
            wantsClose(req.headers) || wantsClose(resp.headers);
        if (close_after)
            resp.headers.set("Connection", "close");
        std::string wire = serialize(resp);
        if (metrics_.requests != nullptr) {
            metrics_.requests->inc();
            metrics_.bytesIn->inc(req.body.size());
            metrics_.bytesOut->inc(wire.size());
        }
        {
            std::lock_guard<std::mutex> lock(doneMu_);
            done_.push_back({id, std::move(wire), close_after});
        }
        wake_.notify();
    });
}

void
HttpServer::applyCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(doneMu_);
        batch.swap(done_);
    }
    for (Completion &done : batch) {
        const auto it = conns_.find(done.id);
        if (it == conns_.end())
            continue;
        Conn &conn = it->second;
        conn.out = std::move(done.wire);
        conn.outPos = 0;
        conn.closeAfter = done.closeAfter;
        conn.state = Conn::State::Writing;
        armIdleDeadline(conn, Clock::now());
        // Optimistic immediate write: most responses fit the socket
        // buffer, skipping a poll round trip.
        writeReady(done.id);
    }
}

void
HttpServer::writeReady(std::uint64_t id)
{
    Conn &conn = conns_.at(id);
    while (conn.outPos < conn.out.size()) {
        const long n = conn.sock.sendSome(conn.out.data() + conn.outPos,
                                          conn.out.size() - conn.outPos);
        if (n > 0) {
            conn.outPos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // poll for POLLOUT.
        closeConn(id); // the peer is gone.
        return;
    }

    // Response fully written.
    if (conn.closeAfter) {
        closeConn(id);
        return;
    }
    conn.out.clear();
    conn.outPos = 0;
    const HttpParser::Status st = conn.parser.status();
    if (st == HttpParser::Status::Complete) {
        // A pipelined request was already buffered behind this one.
        startDispatch(id, conn);
        return;
    }
    if (st == HttpParser::Status::Error) {
        closeConn(id);
        return;
    }
    conn.state = Conn::State::Reading; // keep-alive idle.
    armIdleDeadline(conn, Clock::now());
}

void
HttpServer::reapIdle(Clock::time_point now)
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        Conn &conn = it->second;
        if (conn.state != Conn::State::Dispatching
            && now >= conn.deadline) {
            if (metrics_.idleReaped != nullptr)
                metrics_.idleReaped->inc();
            if (metrics_.liveConnections != nullptr)
                metrics_.liveConnections->add(-1);
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
HttpServer::closeConn(std::uint64_t id)
{
    if (metrics_.liveConnections != nullptr)
        metrics_.liveConnections->add(-1);
    conns_.erase(id);
}

} // namespace smt::net
