"""A local Linked Data server for the live resolver's tests and CI.

One single-threaded `http.server.HTTPServer` on 127.0.0.1 answers by URL
path alone, so a request it gets as an HTTP proxy, for any host, has the
same answer as a direct one. Run as a script (`python tests/lodserver.py`),
it prints its port and serves until stopped.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import urlsplit

# URL path as sent -> (status, headers); any other path answers 404. HEAD
# on a path under /get-only/ answers 405, so a resolver must retry with GET.
# A header value is sent as its Latin-1 bytes.
ROUTES = {
    "/r/turtle": (303, {"Location": "/d/turtle"}),
    "/d/turtle": (200, {"Content-Type": "text/turtle"}),
    "/doc": (200, {"Content-Type": "text/turtle; charset=utf-8"}),
    "/page": (200, {"Content-Type": "text/html"}),
    "/loop": (302, {"Location": "/loop"}),
    "/get-only/doc": (200, {"Content-Type": "application/rdf+xml"}),
    # An IRI with a non-ASCII letter, redirected by a Location of raw UTF-8
    # bytes with a blank: a resolver sends both as %-escapes.
    "/r/K%C3%B6ln": (303, {"Location": "/d/Köln Dom".encode("utf-8").decode("latin-1")}),
    "/d/K%C3%B6ln%20Dom": (200, {"Content-Type": "text/turtle"}),
}


class _Handler(BaseHTTPRequestHandler):
    def do_HEAD(self):
        self._answer(b"")

    def do_GET(self):
        self._answer(b"<http://a.example/s> <http://a.example/p> <http://a.example/o> .\n")

    def _answer(self, body: bytes) -> None:
        path = urlsplit(self.path).path
        status, headers = self.server.routes.get(path, (404, {}))
        if self.command == "HEAD" and path.startswith("/get-only/"):
            status, headers = 405, {}
        body = body if status == 200 else b""
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def serve() -> HTTPServer:
    """A server on a free port of 127.0.0.1 with its own copy of `ROUTES`,
    not yet serving."""
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.routes = dict(ROUTES)
    return server


def start() -> HTTPServer:
    """`serve()`, serving in a daemon thread until `shutdown()`."""
    server = serve()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


if __name__ == "__main__":
    server = serve()
    print(server.server_port, flush=True)
    server.serve_forever()
