/**
 * @file
 * A blocking HTTP/1.1 client with keep-alive connection reuse.
 *
 * One HttpClient holds at most one persistent connection to its
 * host:port. request() sends a message and reads the response; when a
 * *reused* connection turns out to be dead (the server timed it out or
 * restarted between requests), it transparently reconnects and retries
 * once — every store operation is idempotent, so the retry is safe. A
 * failure on a fresh connection is reported, not retried. Responses
 * are read through a per-connection HttpParser, the same grammar the
 * server parses requests with.
 */

#ifndef SMT_NET_HTTP_CLIENT_HH
#define SMT_NET_HTTP_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "net/http.hh"
#include "net/socket.hh"

namespace smt::net
{

/** The pieces of an http:// locator. */
struct Url
{
    std::string host;
    std::uint16_t port = 80;
    std::string path = "/"; ///< always at least "/", no trailing "/".
};

/** True when `text` names an HTTP URL ("http://..."). */
bool isHttpUrl(const std::string &text);

/** Parse "http://host[:port][/path]". */
bool parseUrl(const std::string &text, Url &out);

class HttpClient
{
  public:
    HttpClient(std::string host, std::uint16_t port)
        : host_(std::move(host)), port_(port)
    {
    }

    const std::string &host() const { return host_; }
    std::uint16_t port() const { return port_; }

    /**
     * Perform one exchange. Empty optional when the server is
     * unreachable or the exchange tears; the reason is kept in
     * lastError(). Not thread-safe — guard shared clients externally.
     */
    std::optional<HttpResponse> request(const HttpRequest &req);

    const std::string &lastError() const { return error_; }

  private:
    std::optional<HttpResponse> tryOnce(const HttpRequest &req,
                                        bool fresh_connection);

    std::string host_;
    std::uint16_t port_;
    Socket conn_;
    HttpParser parser_{HttpParser::Kind::Response}; ///< reset per connection.
    std::string error_;
};

} // namespace smt::net

#endif // SMT_NET_HTTP_CLIENT_HH
