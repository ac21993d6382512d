/**
 * @file
 * HTTP/1.1 messages: one incremental parser and a serializer.
 *
 * Deliberately the useful subset and nothing more: request line +
 * status line, case-insensitive headers, bodies framed by
 * Content-Length or chunked transfer encoding (both directions), and
 * HTTP/1.1 keep-alive semantics (persistent unless either side says
 * `Connection: close`). No TLS, no compression, no HTTP/2 — the sweep
 * store speaks digest-verified JSON over loopback or a trusted LAN,
 * where this is exactly enough.
 *
 * Reading is tolerant of torn peers (a connection dropped mid-message
 * reads as failure, never a crash or a half-parsed message); writing
 * always emits one complete, correctly framed message. The server and
 * the client parse through the same HttpParser, so the two directions
 * cannot drift apart.
 */

#ifndef SMT_NET_HTTP_HH
#define SMT_NET_HTTP_HH

#include <string>
#include <utility>
#include <vector>

#include "net/socket.hh"

namespace smt::net
{

/** Ordered header list with case-insensitive lookup. */
class Headers
{
  public:
    void set(const std::string &name, const std::string &value);
    void add(const std::string &name, const std::string &value);
    bool has(const std::string &name) const;
    /** First value of `name`, or "" when absent. */
    std::string get(const std::string &name) const;

    const std::vector<std::pair<std::string, std::string>> &
    items() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::string>> items_;
};

struct HttpRequest
{
    std::string method = "GET";
    std::string target = "/";
    Headers headers;
    std::string body;

    /** Send the body chunked instead of Content-Length framed. */
    bool chunked = false;
};

struct HttpResponse
{
    int status = 200;
    std::string reason; ///< filled from `status` when empty.
    Headers headers;
    std::string body;
    bool chunked = false;

    bool ok() const { return status >= 200 && status < 300; }
};

/** The largest message body either side accepts, declared or
 *  chunked. The store layer's decompression caps reuse this, so a
 *  body cannot be acceptable to one layer and oversized for
 *  another. */
inline constexpr std::size_t kMaxBodyBytes = 256 * 1024 * 1024;

/** The standard reason phrase for a status code ("OK", "Not Found"). */
const char *reasonPhrase(int status);

/** True when this message's `Connection` header asks to drop the
 *  connection after the exchange (HTTP/1.1 defaults to keep-alive). */
bool wantsClose(const Headers &headers);

/** Serialize a complete message (adds Content-Length or chunked
 *  framing; never mutates the input). */
std::string serialize(const HttpRequest &req);
std::string serialize(const HttpResponse &resp);

/**
 * Incremental HTTP/1.1 message parser — the one grammar both the
 * event-loop server (requests) and HttpClient (responses) read with.
 *
 * feed() bytes exactly as they arrive off a socket, in any chunking;
 * the parser consumes the start line (request line, or a status line
 * with an `HTTP/1.` prefix and a status in 100-599), a capped header
 * block, and a body framed by chunked encoding (extensions and
 * trailers allowed) or Content-Length. A message with neither framing
 * header has no body; neither do responses to HEAD and 204/304
 * responses, whatever their framing headers say. status() is
 * three-way — a complete message, need-more-bytes, or malformed — so
 * a torn stream is never mistaken for a hostile one.
 *
 * Pipelining: bytes past one complete message stay buffered; take*()
 * hands the message out and immediately resumes on the leftover, so
 * status() afterwards already describes the next one.
 */
class HttpParser
{
  public:
    enum class Status { NeedMore, Complete, Error };
    /** Which start line the messages open with. */
    enum class Kind { Request, Response };

    explicit HttpParser(Kind kind = Kind::Request,
                        std::size_t max_body = kMaxBodyBytes)
        : kind_(kind), maxBody_(max_body)
    {
    }

    /** Append bytes and advance the machine. Error is sticky; bytes
     *  fed after Complete buffer for the next message. */
    Status feed(const char *data, std::size_t n);

    Status status() const { return status_; }

    /** Bytes buffered beyond what parsed messages consumed. */
    std::size_t bufferedBytes() const { return buf_.size() - pos_; }

    /** Parse the next response as the answer to a HEAD: its framing
     *  headers describe the entity, but no body bytes follow. Takes
     *  effect for a response whose header block is not yet complete. */
    void setHeadResponse(bool head) { headResponse_ = head; }

    /** Move out the parsed message (status() must be Complete, of the
     *  matching kind) and resume on any pipelined bytes. */
    HttpRequest takeRequest();
    HttpResponse takeResponse();

  private:
    enum class State {
        StartLine,
        Headers,
        FixedBody,
        ChunkSize,
        ChunkData,
        ChunkDataEnd,
        Trailers,
    };

    /** Extract one terminated line; false = need more bytes (or the
     *  unterminated run blew the line cap, which sets Error). */
    bool nextLine(std::string &line);
    bool parseStartLine(const std::string &line);
    void advance();
    void enterBodyPhase();
    void resume();

    Kind kind_;
    std::size_t maxBody_;
    bool headResponse_ = false;
    Status status_ = Status::NeedMore;
    State state_ = State::StartLine;
    std::string buf_;
    std::size_t pos_ = 0;
    std::size_t bodyRemaining_ = 0;
    int headerLines_ = 0;

    // The message being parsed: request-line or status-line fields,
    // then the headers and body both kinds share.
    std::string method_, target_;
    int code_ = 0;
    std::string reason_;
    Headers headers_;
    std::string body_;
};

/**
 * Read from `sock` until `parser` holds a complete message (at once,
 * when a pipelined one is already buffered). False on EOF, a socket
 * error or malformed bytes — the caller must drop the connection.
 */
bool readMessage(Socket &sock, HttpParser &parser);

} // namespace smt::net

#endif // SMT_NET_HTTP_HH
