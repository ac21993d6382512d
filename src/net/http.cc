#include "net/http.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace smt::net
{

namespace
{

bool
iequals(const std::string &a, const std::string &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i]))
            != std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

void
appendChunked(std::string &out, const std::string &body)
{
    // Several moderate chunks rather than one, so peers exercise the
    // real multi-chunk path.
    constexpr std::size_t kChunk = 4096;
    char size_line[32];
    for (std::size_t off = 0; off < body.size(); off += kChunk) {
        const std::size_t n = std::min(kChunk, body.size() - off);
        std::snprintf(size_line, sizeof size_line, "%zx\r\n", n);
        out += size_line;
        out.append(body, off, n);
        out += "\r\n";
    }
    out += "0\r\n\r\n";
}

void
appendHeaders(std::string &out, const Headers &headers,
              std::size_t body_size, bool chunked)
{
    for (const auto &[name, value] : headers.items()) {
        // Framing is ours to emit consistently from the actual body;
        // caller-set framing headers are dropped, not trusted.
        if (iequals(name, "Content-Length")
            || iequals(name, "Transfer-Encoding"))
            continue;
        out += name;
        out += ": ";
        out += value;
        out += "\r\n";
    }
    if (chunked)
        out += "Transfer-Encoding: chunked\r\n";
    else
        out += "Content-Length: " + std::to_string(body_size) + "\r\n";
    out += "\r\n";
}

} // namespace

void
Headers::set(const std::string &name, const std::string &value)
{
    for (auto &[n, v] : items_) {
        if (iequals(n, name)) {
            v = value;
            return;
        }
    }
    items_.emplace_back(name, value);
}

void
Headers::add(const std::string &name, const std::string &value)
{
    items_.emplace_back(name, value);
}

bool
Headers::has(const std::string &name) const
{
    for (const auto &[n, v] : items_) {
        if (iequals(n, name))
            return true;
    }
    return false;
}

std::string
Headers::get(const std::string &name) const
{
    for (const auto &[n, v] : items_) {
        if (iequals(n, name))
            return v;
    }
    return "";
}

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 201:
        return "Created";
    case 204:
        return "No Content";
    case 400:
        return "Bad Request";
    case 401:
        return "Unauthorized";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 409:
        return "Conflict";
    case 411:
        return "Length Required";
    case 413:
        return "Payload Too Large";
    case 415:
        return "Unsupported Media Type";
    case 500:
        return "Internal Server Error";
    default:
        return "Unknown";
    }
}

bool
wantsClose(const Headers &headers)
{
    return iequals(headers.get("Connection"), "close");
}

std::string
serialize(const HttpRequest &req)
{
    std::string out = req.method + " " + req.target + " HTTP/1.1\r\n";
    appendHeaders(out, req.headers, req.body.size(), req.chunked);
    if (req.chunked)
        appendChunked(out, req.body);
    else
        out += req.body;
    return out;
}

std::string
serialize(const HttpResponse &resp)
{
    const std::string reason =
        resp.reason.empty() ? reasonPhrase(resp.status) : resp.reason;
    std::string out =
        "HTTP/1.1 " + std::to_string(resp.status) + " " + reason + "\r\n";
    appendHeaders(out, resp.headers, resp.body.size(), resp.chunked);
    if (resp.chunked)
        appendChunked(out, resp.body);
    else
        out += resp.body;
    return out;
}

// An unterminated run longer than this is hostile, not merely slow.
constexpr std::size_t kMaxLineBytes = 64 * 1024;
// Header-block lines (the terminating blank line included).
constexpr int kMaxHeaderLines = 512;

bool
HttpParser::nextLine(std::string &line)
{
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
        if (buf_.size() - pos_ > kMaxLineBytes)
            status_ = Status::Error;
        return false;
    }
    std::size_t end = nl;
    if (end > pos_ && buf_[end - 1] == '\r')
        --end;
    line.assign(buf_, pos_, end - pos_);
    pos_ = nl + 1;
    return true;
}

bool
HttpParser::parseStartLine(const std::string &line)
{
    if (kind_ == Kind::Response) {
        // "HTTP/1.x <status>[ <reason>]"; the reason may be absent.
        if (line.rfind("HTTP/1.", 0) != 0)
            return false;
        const std::size_t sp1 = line.find(' ');
        if (sp1 == std::string::npos)
            return false;
        const long code = std::strtol(line.c_str() + sp1 + 1, nullptr, 10);
        if (code < 100 || code > 599)
            return false;
        code_ = static_cast<int>(code);
        const std::size_t sp2 = line.find(' ', sp1 + 1);
        if (sp2 != std::string::npos)
            reason_ = line.substr(sp2 + 1);
        return true;
    }
    // "<method> <target> HTTP/1.x"
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : line.find(' ', sp1 + 1);
    if (line.empty() || sp2 == std::string::npos)
        return false;
    method_ = line.substr(0, sp1);
    target_ = line.substr(sp1 + 1, sp2 - sp1 - 1);
    return line.compare(sp2 + 1, 7, "HTTP/1.") == 0 && !target_.empty();
}

void
HttpParser::enterBodyPhase()
{
    // HEAD responses and 204/304 never carry a body, whatever their
    // framing headers say.
    if (kind_ == Kind::Response
        && (headResponse_ || code_ == 204 || code_ == 304)) {
        status_ = Status::Complete;
        return;
    }
    // Chunked wins, then a declared length, else no body at all.
    if (iequals(headers_.get("Transfer-Encoding"), "chunked")) {
        state_ = State::ChunkSize;
        return;
    }
    if (headers_.has("Content-Length")) {
        const std::string text = headers_.get("Content-Length");
        char *end = nullptr;
        const unsigned long long len =
            std::strtoull(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0' || len > maxBody_) {
            status_ = Status::Error;
            return;
        }
        bodyRemaining_ = static_cast<std::size_t>(len);
        if (bodyRemaining_ == 0) {
            status_ = Status::Complete;
            return;
        }
        state_ = State::FixedBody;
        return;
    }
    status_ = Status::Complete;
}

void
HttpParser::advance()
{
    std::string line;
    while (status_ == Status::NeedMore) {
        switch (state_) {
        case State::StartLine: {
            if (!nextLine(line))
                return;
            if (!parseStartLine(line)) {
                status_ = Status::Error;
                return;
            }
            state_ = State::Headers;
            headerLines_ = 0;
            break;
        }
        case State::Headers: {
            if (headerLines_ >= kMaxHeaderLines) {
                status_ = Status::Error; // absurd header count.
                return;
            }
            if (!nextLine(line))
                return;
            ++headerLines_;
            if (line.empty()) {
                enterBodyPhase();
                break;
            }
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos) {
                status_ = Status::Error;
                return;
            }
            headers_.add(trim(line.substr(0, colon)),
                         trim(line.substr(colon + 1)));
            break;
        }
        case State::FixedBody: {
            const std::size_t avail = buf_.size() - pos_;
            if (avail == 0)
                return;
            const std::size_t take = std::min(avail, bodyRemaining_);
            body_.append(buf_, pos_, take);
            pos_ += take;
            bodyRemaining_ -= take;
            if (bodyRemaining_ == 0)
                status_ = Status::Complete;
            break;
        }
        case State::ChunkSize: {
            if (!nextLine(line))
                return;
            // Chunk extensions (";...") are permitted and ignored.
            const std::string size_text =
                line.substr(0, line.find(';'));
            char *end = nullptr;
            const unsigned long long size =
                std::strtoull(size_text.c_str(), &end, 16);
            if (end == size_text.c_str()) {
                status_ = Status::Error;
                return;
            }
            if (size == 0) {
                state_ = State::Trailers;
                break;
            }
            // Overflow-proof cap check: a chunk header of 2^64-1 must
            // not wrap the sum past maxBody_.
            if (size > maxBody_ - body_.size()) {
                status_ = Status::Error;
                return;
            }
            bodyRemaining_ = static_cast<std::size_t>(size);
            state_ = State::ChunkData;
            break;
        }
        case State::ChunkData: {
            const std::size_t avail = buf_.size() - pos_;
            if (avail == 0)
                return;
            const std::size_t take = std::min(avail, bodyRemaining_);
            body_.append(buf_, pos_, take);
            pos_ += take;
            bodyRemaining_ -= take;
            if (bodyRemaining_ == 0)
                state_ = State::ChunkDataEnd;
            break;
        }
        case State::ChunkDataEnd: {
            if (!nextLine(line))
                return;
            if (!line.empty()) {
                status_ = Status::Error; // chunk data must end in CRLF.
                return;
            }
            state_ = State::ChunkSize;
            break;
        }
        case State::Trailers: {
            // Trailer content is ignored up to the final blank line.
            if (!nextLine(line))
                return;
            if (line.empty())
                status_ = Status::Complete;
            break;
        }
        }
    }
}

HttpParser::Status
HttpParser::feed(const char *data, std::size_t n)
{
    if (status_ == Status::Error)
        return status_;
    // Compact the consumed prefix before it can grow without bound
    // across a long keep-alive connection.
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > kMaxLineBytes) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(data, n);
    if (status_ == Status::NeedMore)
        advance();
    return status_;
}

void
HttpParser::resume()
{
    headers_ = Headers();
    body_.clear();
    reason_.clear();
    buf_.erase(0, pos_);
    pos_ = 0;
    state_ = State::StartLine;
    status_ = Status::NeedMore;
    bodyRemaining_ = 0;
    headerLines_ = 0;
    advance(); // pipelined bytes may already complete the next one.
}

HttpRequest
HttpParser::takeRequest()
{
    smt_assert(kind_ == Kind::Request && status_ == Status::Complete,
               "takeRequest without a complete request");
    HttpRequest out;
    out.method = std::move(method_);
    out.target = std::move(target_);
    out.headers = std::move(headers_);
    out.body = std::move(body_);
    resume();
    return out;
}

HttpResponse
HttpParser::takeResponse()
{
    smt_assert(kind_ == Kind::Response && status_ == Status::Complete,
               "takeResponse without a complete response");
    HttpResponse out;
    out.status = code_;
    out.reason = std::move(reason_);
    out.headers = std::move(headers_);
    out.body = std::move(body_);
    resume();
    return out;
}

bool
readMessage(Socket &sock, HttpParser &parser)
{
    char chunk[16 * 1024];
    while (parser.status() == HttpParser::Status::NeedMore) {
        const long n = sock.recvSome(chunk, sizeof chunk);
        if (n <= 0)
            return false;
        parser.feed(chunk, static_cast<std::size_t>(n));
    }
    return parser.status() == HttpParser::Status::Complete;
}

} // namespace smt::net
