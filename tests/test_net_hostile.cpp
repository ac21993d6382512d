/**
 * @file
 * Torture tests for the event-loop server and the incremental HTTP
 * parser it shares with the client: protocol abuse over live sockets
 * (byte-at-a-time delivery, arbitrary split points, pipelining, torn
 * bodies, slow-loris drip), HttpParser's verdicts on request and
 * response corpora at every chunking (frozen from the blocking reader
 * it replaced), and a concurrency soak whose client-side ledger must
 * balance the server's /v1/stats counters exactly.
 *
 * The split from test_net.cpp is deliberate: that file pins the wire
 * protocol's *happy* behavior (and must pass unchanged across server
 * rewrites); this one pins how the server behaves when the peer is
 * broken, malicious, or merely very slow.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/http.hh"
#include "net/http_client.hh"
#include "net/http_server.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "sweep/digest.hh"
#include "sweep/json.hh"
#include "sweep/store_service.hh"

namespace smt
{
namespace
{

namespace fs = std::filesystem;

/** A scratch directory removed when the test ends. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((fs::temp_directory_path()
                 / ("smthostile_test_" + tag + "_"
                    + std::to_string(std::random_device{}())))
                    .string())
    {
        fs::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

net::HttpServer::Handler
echoHandler()
{
    return [](const net::HttpRequest &req) {
        net::HttpResponse resp;
        resp.headers.set("X-Method", req.method);
        resp.headers.set("X-Target", req.target);
        resp.body = req.body;
        return resp;
    };
}

// ---- Parser verdicts at every chunking ------------------------------------

using HeaderList = std::vector<std::pair<std::string, std::string>>;

/** Feed `bytes` at a fixed chunk size; the terminal status. */
net::HttpParser::Status
feedChunked(net::HttpParser &parser, const std::string &bytes,
            std::size_t chunk)
{
    net::HttpParser::Status st = parser.status();
    for (std::size_t pos = 0; pos < bytes.size(); pos += chunk)
        st = parser.feed(bytes.data() + pos,
                         std::min(chunk, bytes.size() - pos));
    return st;
}

/** The chunk sizes every valid entry is fed at. */
std::vector<std::size_t>
validChunkings(const std::string &bytes)
{
    return {1, 2, 3, 7, 4096, bytes.size()};
}

/** The chunk sizes every hostile entry is fed at. */
std::vector<std::size_t>
hostileChunkings(const std::string &bytes)
{
    return {1, 13, bytes.size()};
}

/** A valid request and the message it parses to. The expected fields
 *  are the verdicts of the blocking socket reader the parser replaced,
 *  recorded over a socketpair before that reader was deleted. */
struct RequestCase
{
    std::string bytes;
    std::string method;
    std::string target;
    HeaderList headers;
    std::string body;
};

std::vector<RequestCase>
validCorpus()
{
    std::vector<RequestCase> corpus;
    corpus.push_back({"GET /plain HTTP/1.1\r\nHost: x\r\n\r\n", "GET",
                      "/plain", {{"Host", "x"}}, ""});
    corpus.push_back({"GET / HTTP/1.0\r\n\r\n", "GET", "/", {}, ""});
    // Header whitespace trimming on both sides of the colon.
    corpus.push_back({"GET /ws HTTP/1.1\r\nX-Pad:   spaced out   \r\n"
                      "X-Tight:tight\r\n\r\n",
                      "GET",
                      "/ws",
                      {{"X-Pad", "spaced out"}, {"X-Tight", "tight"}},
                      ""});
    // Bare-LF line endings are tolerated.
    corpus.push_back({"GET /barelf HTTP/1.1\nHost: x\n\n", "GET",
                      "/barelf", {{"Host", "x"}}, ""});
    // Content-Length framing, including a zero-length body.
    corpus.push_back({"PUT /cl HTTP/1.1\r\nContent-Length: 11\r\n\r\n"
                      "hello world",
                      "PUT", "/cl", {{"Content-Length", "11"}},
                      "hello world"});
    corpus.push_back({"PUT /empty HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                      "PUT", "/empty", {{"Content-Length", "0"}}, ""});
    // Chunked framing: multiple chunks, a chunk extension, trailers.
    corpus.push_back({"POST /chunked HTTP/1.1\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"
                      "4\r\nwiki\r\n5;ext=1\r\npedia\r\n0\r\n"
                      "X-Trailer: t\r\n\r\n",
                      "POST", "/chunked",
                      {{"Transfer-Encoding", "chunked"}}, "wikipedia"});
    corpus.push_back({"POST /chunked2 HTTP/1.1\r\n"
                      "transfer-encoding: chunked\r\n\r\n"
                      "0\r\n\r\n",
                      "POST", "/chunked2",
                      {{"transfer-encoding", "chunked"}}, ""});
    // A body large enough to span many feed() chunks.
    corpus.push_back({"PUT /big HTTP/1.1\r\nContent-Length: 70000\r\n\r\n"
                          + std::string(70000, 'b'),
                      "PUT", "/big", {{"Content-Length", "70000"}},
                      std::string(70000, 'b')});
    return corpus;
}

/** Requests the blocking reader rejected, every one of them. */
std::vector<std::string>
hostileCorpus()
{
    std::vector<std::string> corpus;
    // Request-line abuse.
    corpus.push_back("\r\nGET / HTTP/1.1\r\n\r\n"); // empty first line.
    corpus.push_back("GARBAGE\r\n\r\n");            // one-word line.
    corpus.push_back("GET /missing-version\r\n\r\n");
    corpus.push_back("GET / FTP/1.0\r\n\r\n");
    corpus.push_back("GET / HTTP/2.0\r\n\r\n"); // not our major.
    corpus.push_back("GET  / HTTP/1.1\r\n\r\n"); // empty target.
    // Header abuse.
    corpus.push_back("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
    {
        std::string many = "GET /many HTTP/1.1\r\n";
        for (int i = 0; i < 600; ++i)
            many += "X-H" + std::to_string(i) + ": v\r\n";
        many += "\r\n";
        corpus.push_back(std::move(many));
    }
    // Content-Length abuse. strtoull negates "-5" into an enormous
    // value, so it trips the same size cap as the huge literal.
    corpus.push_back("PUT / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n");
    corpus.push_back("PUT / HTTP/1.1\r\nContent-Length: -5\r\n\r\n");
    corpus.push_back("PUT / HTTP/1.1\r\n"
                     "Content-Length: 999999999999\r\n\r\n");
    corpus.push_back("PUT / HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n");
    // Chunked abuse.
    corpus.push_back("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                     "\r\nzz\r\ndata\r\n0\r\n\r\n");
    corpus.push_back("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                     "\r\nffffffffffffffff\r\n");
    corpus.push_back("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                     "\r\n4\r\nwikiXX0\r\n\r\n"); // data not CRLF-ended.
    return corpus;
}

/** A valid response and what it parses to; like RequestCase, the
 *  expected fields are the deleted blocking reader's verdicts. */
struct ResponseCase
{
    std::string bytes;
    bool head; ///< the response answers a HEAD request.
    int status;
    std::string reason;
    HeaderList headers;
    std::string body;
};

std::vector<ResponseCase>
validResponseCorpus()
{
    std::vector<ResponseCase> corpus;
    // Content-Length framing, including a zero-length body.
    corpus.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
                      false, 200, "OK", {{"Content-Length", "5"}},
                      "hello"});
    corpus.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
                      false, 200, "OK", {{"Content-Length", "0"}}, ""});
    // Chunked framing with extensions (also on the last chunk) and
    // trailers, which are consumed but not kept.
    corpus.push_back({"HTTP/1.1 201 Created\r\nTransfer-Encoding: chunked\r\n"
                      "ETag: \"abc\"\r\n\r\n"
                      "4;name=val\r\nwiki\r\n5\r\npedia\r\n0;last\r\n"
                      "X-Trailer: t\r\nX-Other: u\r\n\r\n",
                      false,
                      201,
                      "Created",
                      {{"Transfer-Encoding", "chunked"}, {"ETag", "\"abc\""}},
                      "wikipedia"});
    // Bare-LF line endings, header trimming.
    corpus.push_back({"HTTP/1.1 404 Not Found\nContent-Length: 2\n"
                      "X-Why:  gone \n\nno",
                      false,
                      404,
                      "Not Found",
                      {{"Content-Length", "2"}, {"X-Why", "gone"}},
                      "no"});
    // A HEAD response's framing describes an entity that never comes.
    corpus.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n",
                      true, 200, "OK", {{"Content-Length", "42"}}, ""});
    corpus.push_back({"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                      true, 200, "OK", {{"Transfer-Encoding", "chunked"}},
                      ""});
    // 204 and 304 carry no body whatever their framing says.
    corpus.push_back({"HTTP/1.1 204 No Content\r\nContent-Length: 10\r\n\r\n",
                      false, 204, "No Content", {{"Content-Length", "10"}},
                      ""});
    corpus.push_back({"HTTP/1.1 304 Not Modified\r\n"
                      "Content-Length: 7\r\n\r\n",
                      false, 304, "Not Modified", {{"Content-Length", "7"}},
                      ""});
    // A status line with no reason phrase, and one with several words.
    corpus.push_back({"HTTP/1.1 200\r\nContent-Length: 2\r\n\r\nok", false,
                      200, "", {{"Content-Length", "2"}}, "ok"});
    corpus.push_back({"HTTP/1.0 500 Internal Server Error\r\n"
                      "Content-Length: 4\r\n\r\noops",
                      false, 500, "Internal Server Error",
                      {{"Content-Length", "4"}}, "oops"});
    // Unframed and kept alive: no body.
    corpus.push_back({"HTTP/1.1 200 OK\r\nX-Unframed: keep-alive\r\n\r\n",
                      false, 200, "OK", {{"X-Unframed", "keep-alive"}}, ""});
    // Chunked wins over a conflicting Content-Length.
    corpus.push_back({"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                      "Content-Length: 99\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
                      false,
                      200,
                      "OK",
                      {{"Transfer-Encoding", "chunked"},
                       {"Content-Length", "99"}},
                      "abc"});
    corpus.push_back({"HTTP/1.1 200 OK\r\nContent-Length: 70000\r\n\r\n"
                          + std::string(70000, 'r'),
                      false, 200, "OK", {{"Content-Length", "70000"}},
                      std::string(70000, 'r')});
    return corpus;
}

/** Responses the blocking reader rejected, every one of them. */
std::vector<std::string>
hostileResponseCorpus()
{
    std::vector<std::string> corpus;
    // Status-line abuse: out-of-range or missing status, wrong
    // protocol, an empty first line.
    corpus.push_back("HTTP/1.1 99 Too Low\r\nContent-Length: 0\r\n\r\n");
    corpus.push_back("HTTP/1.1 600 Too High\r\nContent-Length: 0\r\n\r\n");
    corpus.push_back("HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n");
    corpus.push_back("HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    corpus.push_back("ICY 200 OK\r\nContent-Length: 0\r\n\r\n");
    corpus.push_back("HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n");
    corpus.push_back("\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
    // Header abuse.
    corpus.push_back("HTTP/1.1 200 OK\r\nno-colon-here\r\n\r\n");
    {
        std::string many = "HTTP/1.1 200 OK\r\n";
        for (int i = 0; i < 600; ++i)
            many += "X-H" + std::to_string(i) + ": v\r\n";
        many += "Content-Length: 0\r\n\r\n";
        corpus.push_back(std::move(many));
    }
    // Content-Length abuse.
    corpus.push_back("HTTP/1.1 200 OK\r\nContent-Length: 12x\r\n\r\n");
    corpus.push_back("HTTP/1.1 200 OK\r\n"
                     "Content-Length: 999999999999\r\n\r\n");
    // Chunked abuse: sizes past the body cap (2^64-1, and one byte
    // over kMaxBodyBytes), a garbage size, data not CRLF-ended.
    const std::string chunked =
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
    corpus.push_back(chunked + "ffffffffffffffff\r\n");
    corpus.push_back(chunked + "10000001\r\n");
    corpus.push_back(chunked + "zz\r\ndata\r\n0\r\n\r\n");
    corpus.push_back(chunked + "4\r\nwikiXX0\r\n\r\n");
    return corpus;
}

TEST(RequestParser, EveryChunkingParsesTheValidCorpusIdentically)
{
    for (const RequestCase &expect : validCorpus()) {
        const std::string &bytes = expect.bytes;
        for (const std::size_t chunk : validChunkings(bytes)) {
            net::HttpParser parser;
            const net::HttpParser::Status st =
                feedChunked(parser, bytes, chunk);
            ASSERT_EQ(st, net::HttpParser::Status::Complete)
                << "chunk=" << chunk << " input:\n"
                << bytes.substr(0, 120);
            net::HttpRequest got = parser.takeRequest();
            EXPECT_EQ(got.method, expect.method);
            EXPECT_EQ(got.target, expect.target);
            EXPECT_EQ(got.body, expect.body);
            EXPECT_EQ(got.headers.items(), expect.headers);
            // Nothing pipelined behind a lone message.
            EXPECT_EQ(parser.status(), net::HttpParser::Status::NeedMore);
            EXPECT_EQ(parser.bufferedBytes(), 0u);
        }
    }
}

TEST(RequestParser, RejectsTheHostileCorpusLikeTheBlockingReader)
{
    for (const std::string &bytes : hostileCorpus()) {
        for (const std::size_t chunk : hostileChunkings(bytes)) {
            net::HttpParser parser;
            const net::HttpParser::Status st =
                feedChunked(parser, bytes, chunk);
            EXPECT_EQ(st, net::HttpParser::Status::Error)
                << "chunk=" << chunk << " input:\n"
                << bytes.substr(0, 120);
        }
    }
}

TEST(ResponseParser, EveryChunkingParsesTheValidCorpusIdentically)
{
    for (const ResponseCase &expect : validResponseCorpus()) {
        const std::string &bytes = expect.bytes;
        for (const std::size_t chunk : validChunkings(bytes)) {
            net::HttpParser parser(net::HttpParser::Kind::Response);
            parser.setHeadResponse(expect.head);
            const net::HttpParser::Status st =
                feedChunked(parser, bytes, chunk);
            ASSERT_EQ(st, net::HttpParser::Status::Complete)
                << "chunk=" << chunk << " input:\n"
                << bytes.substr(0, 120);
            net::HttpResponse got = parser.takeResponse();
            EXPECT_EQ(got.status, expect.status);
            EXPECT_EQ(got.reason, expect.reason);
            EXPECT_EQ(got.body, expect.body);
            EXPECT_EQ(got.headers.items(), expect.headers);
            EXPECT_EQ(parser.status(), net::HttpParser::Status::NeedMore);
            EXPECT_EQ(parser.bufferedBytes(), 0u);
        }
    }
}

TEST(ResponseParser, RejectsTheHostileCorpusLikeTheBlockingReader)
{
    for (const std::string &bytes : hostileResponseCorpus()) {
        for (const std::size_t chunk : hostileChunkings(bytes)) {
            net::HttpParser parser(net::HttpParser::Kind::Response);
            const net::HttpParser::Status st =
                feedChunked(parser, bytes, chunk);
            EXPECT_EQ(st, net::HttpParser::Status::Error)
                << "chunk=" << chunk << " input:\n"
                << bytes.substr(0, 120);
        }
    }
}

TEST(ResponseParser, UnframedCloseResponseHasNoBody)
{
    // The one deliberate departure from the blocking reader, which
    // read an unframed `Connection: close` body up to EOF ("until-eof"
    // here). serialize() always frames, so no peer of ours sends such
    // a response; the parser treats it like an unframed request: no
    // body, and the trailing bytes stay unconsumed.
    const std::string bytes =
        "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil-eof";
    for (const std::size_t chunk : validChunkings(bytes)) {
        net::HttpParser parser(net::HttpParser::Kind::Response);
        ASSERT_EQ(feedChunked(parser, bytes, chunk),
                  net::HttpParser::Status::Complete)
            << "chunk=" << chunk;
        const net::HttpResponse got = parser.takeResponse();
        EXPECT_EQ(got.status, 200);
        EXPECT_TRUE(net::wantsClose(got.headers));
        EXPECT_EQ(got.body, "");
        EXPECT_EQ(parser.bufferedBytes(), std::string("until-eof").size());
    }
}

TEST(RequestParser, TornPrefixesReadAsNeedMoreNotError)
{
    // The three-way status is the parser's reason to exist: a torn
    // stream is NeedMore (the peer may still finish), only genuinely
    // malformed bytes are Error.
    const std::string bytes =
        "PUT /torn HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        net::HttpParser parser;
        const net::HttpParser::Status st =
            parser.feed(bytes.data(), cut);
        EXPECT_EQ(st, net::HttpParser::Status::NeedMore)
            << "cut=" << cut;
    }
}

TEST(RequestParser, UnterminatedLineBeyondTheCapIsError)
{
    // 70KB of request line with no newline in sight: hostile, not
    // merely slow — and rejected without waiting for termination.
    net::HttpParser parser;
    const std::string blob = "GET /" + std::string(70 * 1024, 'a');
    EXPECT_EQ(feedChunked(parser, blob, 4096),
              net::HttpParser::Status::Error);
}

TEST(RequestParser, ErrorIsSticky)
{
    net::HttpParser parser;
    const std::string bad = "GARBAGE\r\n\r\n";
    ASSERT_EQ(feedChunked(parser, bad, bad.size()),
              net::HttpParser::Status::Error);
    const std::string good = "GET / HTTP/1.1\r\n\r\n";
    EXPECT_EQ(parser.feed(good.data(), good.size()),
              net::HttpParser::Status::Error);
}

TEST(RequestParser, PipelinedMessagesComeOutInOrder)
{
    net::HttpRequest one;
    one.method = "PUT";
    one.target = "/first";
    one.body = "alpha";
    net::HttpRequest two;
    two.target = "/second";
    const std::string bytes =
        net::serialize(one) + net::serialize(two);

    net::HttpParser parser;
    ASSERT_EQ(feedChunked(parser, bytes, 1),
              net::HttpParser::Status::Complete);
    net::HttpRequest got = parser.takeRequest();
    EXPECT_EQ(got.target, "/first");
    EXPECT_EQ(got.body, "alpha");
    // takeRequest() resumed on the buffered tail.
    ASSERT_EQ(parser.status(), net::HttpParser::Status::Complete);
    got = parser.takeRequest();
    EXPECT_EQ(got.target, "/second");
    EXPECT_EQ(parser.status(), net::HttpParser::Status::NeedMore);
}

TEST(HttpClientReads, SurplusBytesAfterAResponseAreNeverTheNextAnswer)
{
    // A broken peer answers its first request twice. The client's
    // per-connection parser must not hand the surplus out as the
    // answer to the next request: the connection is dropped and the
    // next request goes out on a fresh one.
    net::Socket listener = net::listenTcp("127.0.0.1", 0, 4);
    ASSERT_TRUE(listener.valid());
    std::thread peer([&listener] {
        for (const std::string body : {"first", "second"}) {
            net::Socket conn = net::acceptConn(listener);
            net::HttpParser in;
            if (!net::readMessage(conn, in))
                return;
            in.takeRequest();
            net::HttpResponse resp;
            resp.body = body;
            std::string wire = net::serialize(resp);
            if (body == "first") {
                resp.body = "stale";
                wire += net::serialize(resp);
            }
            if (!conn.sendAll(wire))
                return;
            char byte;
            while (conn.recvSome(&byte, 1) > 0) {
            } // hold the connection until the client lets go.
        }
    });
    {
        net::HttpClient client("127.0.0.1", net::boundPort(listener));
        const auto one = client.request(net::HttpRequest());
        const auto two = client.request(net::HttpRequest());
        EXPECT_EQ(one ? one->body : client.lastError(), "first");
        EXPECT_EQ(two ? two->body : client.lastError(), "second");
    } // the client's close ends the peer's hold.
    listener.shutdownBoth(); // unblocks accept() if the test failed.
    peer.join();
}

// ---- Live-socket torture ---------------------------------------------------

class HostileServerTest : public ::testing::Test
{
  protected:
    void
    startServer(double idle_timeout = 30.0,
                net::HttpServer::Handler handler = echoHandler())
    {
        server_.setMetrics(&metrics_);
        server_.setIdleTimeout(idle_timeout);
        std::string error;
        ASSERT_TRUE(server_.start("127.0.0.1", 0, std::move(handler),
                                  &error))
            << error;
    }

    std::int64_t
    counter(const std::string &name)
    {
        return metrics_.counter(name).value();
    }

    obs::Registry metrics_;
    net::HttpServer server_;
};

TEST_F(HostileServerTest, ByteAtATimeRequestStillParses)
{
    startServer();
    net::Socket sock = net::connectTcp("127.0.0.1", server_.port());
    ASSERT_TRUE(sock.valid());
    const std::string bytes =
        "PUT /dribble HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
    for (const char byte : bytes)
        ASSERT_TRUE(sock.sendAll(&byte, 1));
    net::HttpParser in(net::HttpParser::Kind::Response);
    ASSERT_TRUE(net::readMessage(sock, in));
    const net::HttpResponse resp = in.takeResponse();
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.headers.get("X-Target"), "/dribble");
    EXPECT_EQ(resp.body, "hello");
}

TEST_F(HostileServerTest, ArbitrarySplitPointsDoNotConfuseTheServer)
{
    startServer();
    net::HttpRequest req;
    req.method = "POST";
    req.target = "/split";
    req.body = "0123456789abcdef0123456789abcdef";
    req.chunked = true; // chunked framing crosses splits too.
    const std::string bytes = net::serialize(req);

    // Cut the wire bytes at every single boundary, one fresh
    // connection per cut — headers, CRLFs, and chunk frames all get
    // split somewhere.
    for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
        net::Socket sock =
            net::connectTcp("127.0.0.1", server_.port());
        ASSERT_TRUE(sock.valid());
        ASSERT_TRUE(sock.sendAll(bytes.substr(0, cut)));
        ASSERT_TRUE(sock.sendAll(bytes.substr(cut)));
        net::HttpParser in(net::HttpParser::Kind::Response);
        ASSERT_TRUE(net::readMessage(sock, in)) << "cut=" << cut;
        const net::HttpResponse resp = in.takeResponse();
        EXPECT_EQ(resp.body, req.body) << "cut=" << cut;
    }
}

TEST_F(HostileServerTest, PipelinedRequestsAnswerInOrder)
{
    startServer();
    net::Socket sock = net::connectTcp("127.0.0.1", server_.port());
    ASSERT_TRUE(sock.valid());

    std::string wire;
    for (int i = 0; i < 3; ++i) {
        net::HttpRequest req;
        req.method = "PUT";
        req.target = "/pipelined/" + std::to_string(i);
        req.body = std::string(1 + i * 100, 'p');
        wire += net::serialize(req);
    }
    // One write carries all three; responses must come back complete,
    // in order, and correctly framed.
    ASSERT_TRUE(sock.sendAll(wire));
    net::HttpParser in(net::HttpParser::Kind::Response);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(net::readMessage(sock, in)) << "response " << i;
        const net::HttpResponse resp = in.takeResponse();
        EXPECT_EQ(resp.headers.get("X-Target"),
                  "/pipelined/" + std::to_string(i));
        EXPECT_EQ(resp.body.size(), 1u + i * 100);
    }
}

TEST_F(HostileServerTest, TornMidBodyConnectionLeavesOthersServed)
{
    startServer();
    {
        net::Socket torn =
            net::connectTcp("127.0.0.1", server_.port());
        ASSERT_TRUE(torn.valid());
        ASSERT_TRUE(torn.sendAll(std::string(
            "PUT /torn HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-"
            "this-much")));
    } // dies mid-body.

    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/alive";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->headers.get("X-Target"), "/alive");
}

TEST_F(HostileServerTest, SlowLorisIsReapedWithoutStallingOthers)
{
    startServer(/*idle_timeout=*/0.3);

    // The loris: drips one header byte at a time, never completing a
    // request. The idle deadline is armed when the connection starts
    // reading and is NOT extended by partial bytes, so this peer dies
    // at ~0.3s no matter how diligently it drips.
    std::atomic<bool> loris_cut{false};
    std::thread loris([&] {
        net::Socket sock =
            net::connectTcp("127.0.0.1", server_.port());
        if (!sock.valid())
            return;
        const std::string drip = "GET /never HTTP/1.1\r\nX-Slow: ";
        for (std::size_t i = 0; i < drip.size(); ++i) {
            if (!sock.sendAll(&drip[i], 1))
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(40));
        }
        // The server's close surfaces as EOF here (or a send error
        // above, depending on timing).
        char byte = 0;
        loris_cut.store(sock.recvSome(&byte, 1) <= 0);
    });

    // Meanwhile normal clients must sail through, each completing far
    // faster than the reap deadline.
    net::HttpClient client("127.0.0.1", server_.port());
    const auto t0 = std::chrono::steady_clock::now();
    int served = 0;
    while (std::chrono::steady_clock::now() - t0
           < std::chrono::milliseconds(1200)) {
        net::HttpRequest req;
        req.target = "/healthy";
        auto resp = client.request(req);
        ASSERT_TRUE(resp.has_value()) << client.lastError();
        EXPECT_EQ(resp->status, 200);
        ++served;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    loris.join();

    EXPECT_TRUE(loris_cut.load());
    EXPECT_GE(served, 10);
    EXPECT_GE(counter("net.idle_reaped"), 1);
}

TEST_F(HostileServerTest, DispatchedHandlersOutliveTheIdleDeadline)
{
    // A handler slower than the idle timeout must still answer: a
    // Dispatching connection is the handler's problem, not the
    // reaper's.
    startServer(/*idle_timeout=*/0.2,
                [](const net::HttpRequest &) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(600));
                    net::HttpResponse resp;
                    resp.body = "slow but done";
                    return resp;
                });
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    req.target = "/slow";
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->body, "slow but done");
    EXPECT_EQ(counter("net.idle_reaped"), 0);
}

TEST_F(HostileServerTest, IdleKeepAliveConnectionsAreReaped)
{
    startServer(/*idle_timeout=*/0.2);
    net::HttpClient client("127.0.0.1", server_.port());
    net::HttpRequest req;
    ASSERT_TRUE(client.request(req).has_value());

    // Sit past the deadline; the server reaps the idle keep-alive
    // connection (the loop wakes exactly for it).
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_GE(counter("net.idle_reaped"), 1);

    // The client notices its cached connection is dead and retries
    // transparently — reaping is invisible to well-behaved callers.
    auto resp = client.request(req);
    ASSERT_TRUE(resp.has_value()) << client.lastError();
    EXPECT_EQ(resp->status, 200);
}

TEST_F(HostileServerTest, ConnectionCapRejectsTheOverflowPeer)
{
    server_.setMaxConnections(2);
    startServer();

    // Two residents, each with a completed exchange so the server has
    // definitely registered them.
    net::HttpClient a("127.0.0.1", server_.port());
    net::HttpClient b("127.0.0.1", server_.port());
    net::HttpRequest req;
    ASSERT_TRUE(a.request(req).has_value());
    ASSERT_TRUE(b.request(req).has_value());

    // The third peer connects (the kernel completes the handshake)
    // but the server accepts-and-closes: no response, just EOF — or
    // RST when the peer's bytes raced ahead of the server's close.
    net::Socket third = net::connectTcp("127.0.0.1", server_.port());
    ASSERT_TRUE(third.valid());
    third.sendAll(std::string("GET / HTTP/1.1\r\n\r\n"));
    char byte = 0;
    EXPECT_LE(third.recvSome(&byte, 1), 0);
    EXPECT_GE(counter("net.connections.rejected"), 1);
}

// ---- Concurrency soak: the ledger must balance -----------------------------

TEST(HostileSoak, ConcurrentMixedLoadBalancesTheStatsLedger)
{
    TempDir dir("soak");
    sweep::StoreService service(dir.path());
    net::HttpServer server;
    server.setMetrics(&service.metrics());
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1", 0,
                             [&](const net::HttpRequest &req) {
                                 return service.handle(req);
                             },
                             &error))
        << error;

    constexpr int kThreads = 16;
    constexpr int kOpsPerThread = 60;
    // 60 ops/thread = 15 claim ops (one in four); with 15 keys every
    // digest is contested by every thread.
    constexpr int kClaimKeys = 15;

    // Claim targets live in their own keyspace (no entries), so the
    // CAS on an empty marker decides exactly one winner per digest.
    std::vector<std::string> claim_digests;
    for (int i = 0; i < kClaimKeys; ++i)
        claim_digests.push_back(
            sweep::digestHex("soak-claim-" + std::to_string(i)));

    const auto stats_requests = [&](net::HttpClient &client)
        -> std::int64_t {
        net::HttpRequest req;
        req.target = "/v1/stats";
        auto resp = client.request(req);
        if (!resp || resp->status != 200)
            return -1;
        sweep::Json doc;
        if (!sweep::Json::parse(resp->body, doc))
            return -1;
        return doc.at("counters").at("net.requests").asInt();
    };

    net::HttpClient probe("127.0.0.1", server.port());
    const std::int64_t before = stats_requests(probe);
    ASSERT_GE(before, 0);

    std::atomic<std::uint64_t> total_ops{0};
    std::atomic<std::uint64_t> claim_wins{0};
    std::atomic<std::uint64_t> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            net::HttpClient client("127.0.0.1", server.port());
            sweep::Json marker = sweep::Json::object();
            marker.set("pid", sweep::Json(std::int64_t(t + 1)));
            marker.set("host", sweep::Json("soak"));

            for (int op = 0; op < kOpsPerThread; ++op) {
                const int kind = op % 4;
                const std::string digest = sweep::digestHex(
                    "soak-entry-" + std::to_string(op % 8));
                net::HttpRequest req;
                bool ok = false;
                if (kind == 0) {
                    // Digest-verified PUT.
                    sweep::Json entry = sweep::Json::object();
                    entry.set("digest", sweep::Json(digest));
                    sweep::Json stats = sweep::Json::object();
                    stats.set("t", sweep::Json(std::int64_t(t)));
                    entry.set("stats", std::move(stats));
                    req.method = "PUT";
                    req.target = "/v1/entries/" + digest;
                    req.body = entry.dump();
                    req.headers.set("X-Content-Digest",
                                    sweep::contentDigest(req.body));
                    auto resp = client.request(req);
                    ok = resp && resp->status == 204;
                } else if (kind == 1) {
                    req.target = "/v1/entries/" + digest;
                    auto resp = client.request(req);
                    // 404 races a writer legally; a 200 body must
                    // verify against its own declared digest field.
                    ok = resp
                         && (resp->status == 404
                             || (resp->status == 200
                                 && [&] {
                                        sweep::Json doc;
                                        return sweep::Json::parse(
                                                   resp->body, doc)
                                               && doc.at("digest")
                                                          .asString()
                                                      == digest;
                                    }()));
                } else if (kind == 2) {
                    req.method = "HEAD";
                    req.target = "/v1/entries/" + digest;
                    auto resp = client.request(req);
                    ok = resp
                         && (resp->status == 200
                             || resp->status == 404);
                } else {
                    // Claim CAS: every thread races for the same
                    // digest; exactly one 200 per digest total.
                    const std::string &target =
                        claim_digests[(op / 4) % kClaimKeys];
                    sweep::Json claim = sweep::Json::object();
                    claim.set("expect", sweep::Json(std::string()));
                    claim.set("marker",
                              sweep::Json::parseOrDie(marker.dump()));
                    req.method = "POST";
                    req.target = "/v1/claims/" + target;
                    req.body = claim.dump();
                    auto resp = client.request(req);
                    ok = resp
                         && (resp->status == 200
                             || resp->status == 409);
                    if (resp && resp->status == 200)
                        claim_wins.fetch_add(1);
                }
                total_ops.fetch_add(1);
                if (!ok)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const std::int64_t after = stats_requests(probe);
    ASSERT_GE(after, 0);
    server.stop();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(total_ops.load(),
              std::uint64_t(kThreads) * kOpsPerThread);
    // Exactly one winner per contested digest — no lost or duplicated
    // claims under 16-way contention.
    EXPECT_EQ(claim_wins.load(), std::uint64_t(kClaimKeys));
    // The ledger: the server saw precisely the client ops plus the
    // *before* stats probe (its counter lands inside the window; the
    // after-probe's lands outside, since counters record after the
    // handler returns). Any daylight here means requests were lost,
    // duplicated, or double-counted.
    EXPECT_EQ(after - before,
              std::int64_t(total_ops.load()) + 1);
}

} // namespace
} // namespace smt
