"""Tests for the WSGI-style middleware composition primitives."""

from repro.swift.exceptions import NotFound
from repro.swift.http import Request, Response
from repro.swift.middleware import (
    BaseMiddleware,
    CatchErrors,
    build_pipeline,
)


def echo_app(request: Request) -> Response:
    return Response(200, body=request.path.encode())


class Tag(BaseMiddleware):
    """Appends a tag to a response header (records wrapping order)."""

    def __init__(self, app, tag):
        super().__init__(app)
        self.tag = tag

    def handle(self, request):
        response = self.app(request)
        trail = response.headers.get("x-trail", "")
        response.headers["x-trail"] = trail + self.tag
        return response

    @classmethod
    def factory(cls, tag):
        return lambda app: cls(app, tag)


class TestBuildPipeline:
    def test_first_factory_is_outermost(self):
        pipeline = build_pipeline(
            echo_app, [Tag.factory("outer"), Tag.factory("inner")]
        )
        response = pipeline(Request("GET", "/a/c/o"))
        # Response passes inner first, then outer appends last.
        assert response.headers["x-trail"] == "innerouter"

    def test_empty_pipeline_is_app(self):
        assert build_pipeline(echo_app, []) is echo_app

    def test_base_middleware_default_passthrough(self):
        pipeline = build_pipeline(echo_app, [BaseMiddleware])
        response = pipeline(Request("GET", "/a/c/o"))
        assert response.read() == b"/a/c/o"


class TestCatchErrors:
    def test_swift_error_keeps_status(self):
        def failing(request):
            raise NotFound("gone")

        response = CatchErrors(failing)(Request("GET", "/a"))
        assert response.status == 404
        assert b"gone" in response.read()

    def test_arbitrary_exception_becomes_500(self):
        def crashing(request):
            raise RuntimeError("unexpected")

        response = CatchErrors(crashing)(Request("GET", "/a"))
        assert response.status == 500

    def test_success_passes_through(self):
        response = CatchErrors(echo_app)(Request("GET", "/a/b/c"))
        assert response.status == 200
