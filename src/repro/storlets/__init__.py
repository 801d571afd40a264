"""An OpenStack-Storlets-like active storage framework.

Storlets let developers "write code, package and deploy it as a regular
object, and then explicitly invoke it on data objects as if the code was
part of Swift's WSGI pipeline" (paper Section V-A).  This package
provides the equivalent engine plus the two extensions the paper
contributed for Scoop:

* **pipelining** -- several storlets may run on a single request, each
  consuming the previous one's output stream;
* **staging control** -- a storlet runs either on the proxy tier or on
  the object (storage) tier, the latter avoiding whole-object transfers
  to proxies and exploiting the larger storage-node pool;
* **byte ranges** -- storlets can be invoked on a byte range of an
  object with enough lookahead to finish records that straddle the range
  end, matching how Spark tasks address object partitions.

The flagship pushdown filter is :class:`~repro.storlets.csv_storlet.CsvStorlet`,
which applies SQL projections and selections to CSV streams next to the
disk; PUT-path ETL storlets (cleansing, column splitting) live in
:mod:`repro.storlets.etl_storlet`.
"""

from repro.storlets.api import (
    IStorlet,
    StorletException,
    StorletFailure,
    StorletInputStream,
    StorletLogger,
)
from repro.storlets.csv_storlet import CsvStorlet
from repro.storlets.engine import (
    StorletEngine,
    StorletMiddleware,
    StorletRequestHeaders,
)
from repro.storlets.etl_storlet import CleansingStorlet, ColumnSplitStorlet
from repro.storlets.sandbox import Sandbox, SandboxStats

__all__ = [
    "CleansingStorlet",
    "ColumnSplitStorlet",
    "CsvStorlet",
    "IStorlet",
    "Sandbox",
    "SandboxStats",
    "StorletEngine",
    "StorletException",
    "StorletFailure",
    "StorletInputStream",
    "StorletLogger",
    "StorletMiddleware",
    "StorletRequestHeaders",
]
