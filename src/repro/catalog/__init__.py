"""Object-level data-skipping catalog (per-object min/max/bloom stats).

The PUT-path ETL storlets compute per-object, per-column statistics
while the object streams through them and persist the result as one
Swift user-metadata header on the stored object
(:data:`~repro.catalog.metadata.CATALOG_HEADER`).  Partition discovery
already makes one request per candidate object (its footer, planning
or HEAD request); the catalog rides that response, so consulting it
against the query's filter conjunction and skipping whole objects costs
**zero additional requests** -- a refuted object is never GET at all.

The refutation logic is shared with stripe pruning
(:mod:`repro.columnar.stats`), so the conservatism guarantee is the
same: an object containing at least one matching row is never skipped.
Absent, unparseable, or version-mismatched catalog entries degrade to
"may match" (see docs/skipping.md for the staleness semantics).
"""

from repro.catalog.metadata import (
    CATALOG_HEADER,
    CATALOG_VERSION,
    CatalogBuilder,
    ObjectCatalog,
    decode_catalog,
)

__all__ = [
    "CATALOG_HEADER",
    "CATALOG_VERSION",
    "CatalogBuilder",
    "ObjectCatalog",
    "decode_catalog",
]
