"""Object, container and account servers (the storage tier).

An :class:`ObjectServer` owns the devices (disks) of one storage machine
and serves PUT/GET/HEAD/DELETE for the objects placed on them by the
ring.  GET honours byte ranges -- the capability the paper added to the
Storlet middleware "to match the natural operation of Spark tasks, which
work on specific byte ranges of objects" (Section V-A).

Container and account servers maintain listings and metadata.  In the
paper's testbed the container/account rings live on the proxy machines;
we model them as replicated listing stores addressed through their own
ring.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.qos.budget import budgeted_chunks
from repro.swift.exceptions import (
    BadRequest,
    ContainerNotEmpty,
    NotFound,
    RangeNotSatisfiable,
)
from repro.swift.http import (
    HeaderDict,
    Request,
    Response,
    chunk_bytes,
    chunk_bytes_range,
    parse_range,
)

_timestamp_counter = itertools.count()


def next_timestamp() -> float:
    """Monotonic logical timestamp (wall time + tiebreak counter)."""
    return time.time() + next(_timestamp_counter) * 1e-9


USER_META_PREFIX = "x-object-meta-"

#: Request environ key of ``(body, md5 hex of body)``: the proxy hashes
#: a PUT body once for all its replicas.  An object server takes the
#: hash only for that very ``bytes`` object (immutable, so the same
#: bytes); any other body -- one a middleware rewrote -- it hashes itself.
BODY_ETAG_ENV_KEY = "swift.body_etag"


@dataclass
class StoredObject:
    """One replica of an object on one device."""

    data: bytes
    etag: str
    timestamp: float
    content_type: str = "application/octet-stream"
    metadata: HeaderDict = field(default_factory=HeaderDict)

    @property
    def size(self) -> int:
        return len(self.data)


class ObjectServer:
    """The storage service for one machine's devices."""

    def __init__(self, node_name: str, device_ids: List[int]):
        self.node_name = node_name
        self.devices: Dict[int, Dict[str, StoredObject]] = {
            dev_id: {} for dev_id in device_ids
        }

    # -- inventory ---------------------------------------------------------

    def object_count(self) -> int:
        return sum(len(store) for store in self.devices.values())

    def bytes_used(self) -> int:
        return sum(
            obj.size for store in self.devices.values() for obj in store.values()
        )

    def _store_for(self, request: Request) -> Dict[str, StoredObject]:
        device_id = request.environ.get("swift.device")
        if device_id is None or device_id not in self.devices:
            raise BadRequest(
                f"{self.node_name}: request without a valid device "
                f"(got {device_id!r})"
            )
        return self.devices[device_id]

    # -- the app -----------------------------------------------------------

    def __call__(self, request: Request) -> Response:
        handler = getattr(self, request.method, None)
        if handler is None:
            return Response(400, body=b"unsupported method")
        return handler(request)

    def PUT(self, request: Request) -> Response:
        store = self._store_for(request)
        data = request.body_bytes()
        hashed = request.environ.get(BODY_ETAG_ENV_KEY)
        if hashed is not None and hashed[0] is data:
            etag = hashed[1]
        else:
            etag = hashlib.md5(data).hexdigest()
        metadata = HeaderDict(
            {
                key: value
                for key, value in request.headers.items()
                if key.startswith(USER_META_PREFIX)
            }
        )
        timestamp_header = request.headers.get("x-timestamp")
        stored = StoredObject(
            data=data,
            etag=etag,
            timestamp=(
                float(timestamp_header)
                if timestamp_header is not None
                else next_timestamp()
            ),
            content_type=request.headers.get(
                "content-type", "application/octet-stream"
            ),
            metadata=metadata,
        )
        store[request.path] = stored
        return Response(201, headers={"etag": etag})

    def GET(self, request: Request) -> Response:
        store = self._store_for(request)
        stored = store.get(request.path)
        if stored is None:
            raise NotFound(f"object not found: {request.path}")
        headers = self._object_headers(stored)
        range_header = request.headers.get("range")
        if range_header:
            resolved = parse_range(range_header, stored.size)
            if resolved is None:
                # Syntactically invalid byte-range-spec (end < start):
                # RFC 7233 says ignore the header -> full body, 200.
                headers["content-length"] = str(stored.size)
                return Response(
                    200,
                    headers,
                    budgeted_chunks(
                        chunk_bytes(stored.data), request, "object"
                    ),
                )
            start, end = resolved
            if start >= stored.size or start > end:
                error = RangeNotSatisfiable(
                    f"range {range_header!r} outside object of {stored.size} B"
                )
                # RFC 7233 section 4.4: a 416 carries the current
                # object length so clients can re-issue a valid range.
                error.headers = HeaderDict(
                    {"content-range": f"bytes */{stored.size}"}
                )
                raise error
            headers["content-range"] = f"bytes {start}-{end}/{stored.size}"
            headers["content-length"] = str(end - start + 1)
            # Stream the range as lazy chunk-size slices; the sub-range
            # is never materialized as one contiguous payload.
            return Response(
                206,
                headers,
                budgeted_chunks(
                    chunk_bytes_range(stored.data, start, end + 1),
                    request,
                    "object",
                ),
            )
        headers["content-length"] = str(stored.size)
        return Response(
            200,
            headers,
            budgeted_chunks(chunk_bytes(stored.data), request, "object"),
        )

    def HEAD(self, request: Request) -> Response:
        store = self._store_for(request)
        stored = store.get(request.path)
        if stored is None:
            raise NotFound(f"object not found: {request.path}")
        headers = self._object_headers(stored)
        headers["content-length"] = str(stored.size)
        return Response(200, headers, b"")

    def DELETE(self, request: Request) -> Response:
        store = self._store_for(request)
        if request.path not in store:
            raise NotFound(f"object not found: {request.path}")
        del store[request.path]
        return Response(204)

    @staticmethod
    def _object_headers(stored: StoredObject) -> HeaderDict:
        headers = HeaderDict(
            {
                "etag": stored.etag,
                "content-type": stored.content_type,
                "x-timestamp": f"{stored.timestamp:.9f}",
            }
        )
        headers.update(stored.metadata)
        return headers


@dataclass
class ObjectRecord:
    """A container-listing entry."""

    name: str
    size: int
    etag: str
    content_type: str
    timestamp: float


@dataclass
class ContainerRecord:
    metadata: HeaderDict = field(default_factory=HeaderDict)
    objects: Dict[str, ObjectRecord] = field(default_factory=dict)
    policies: Dict[str, str] = field(default_factory=dict)


class ContainerStore:
    """Listings and metadata for all containers of all accounts.

    Functionally a replicated service; we model the authoritative state
    once (replication of listings does not affect the data path under
    study).
    """

    def __init__(self):
        self._containers: Dict[Tuple[str, str], ContainerRecord] = {}

    def create(self, account: str, container: str, headers: HeaderDict) -> bool:
        key = (account, container)
        created = key not in self._containers
        record = self._containers.setdefault(key, ContainerRecord())
        for header, value in headers.items():
            if header.startswith("x-container-meta-"):
                record.metadata[header] = value
        return created

    def exists(self, account: str, container: str) -> bool:
        return (account, container) in self._containers

    def get(self, account: str, container: str) -> ContainerRecord:
        record = self._containers.get((account, container))
        if record is None:
            raise NotFound(f"container not found: /{account}/{container}")
        return record

    def delete(self, account: str, container: str) -> None:
        record = self.get(account, container)
        if record.objects:
            raise ContainerNotEmpty(
                f"/{account}/{container} still holds {len(record.objects)} objects"
            )
        del self._containers[(account, container)]

    def add_object(
        self,
        account: str,
        container: str,
        name: str,
        size: int,
        etag: str,
        content_type: str,
    ) -> None:
        record = self.get(account, container)
        record.objects[name] = ObjectRecord(
            name, size, etag, content_type, next_timestamp()
        )

    def remove_object(self, account: str, container: str, name: str) -> None:
        record = self.get(account, container)
        record.objects.pop(name, None)

    def list_objects(
        self,
        account: str,
        container: str,
        prefix: str = "",
        marker: str = "",
        limit: int = 10000,
    ) -> List[ObjectRecord]:
        record = self.get(account, container)
        names = sorted(record.objects)
        selected = [
            record.objects[name]
            for name in names
            if name.startswith(prefix) and name > marker
        ]
        return selected[:limit]

    def containers_for(self, account: str) -> List[str]:
        return sorted(
            container
            for acct, container in self._containers
            if acct == account
        )


class AccountStore:
    """Account existence and metadata."""

    def __init__(self):
        self._accounts: Dict[str, HeaderDict] = {}

    def ensure(self, account: str) -> None:
        self._accounts.setdefault(account, HeaderDict())

    def exists(self, account: str) -> bool:
        return account in self._accounts

    def metadata(self, account: str) -> HeaderDict:
        if account not in self._accounts:
            raise NotFound(f"account not found: /{account}")
        return self._accounts[account]
