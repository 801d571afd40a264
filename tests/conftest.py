"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import ScoopContext
from repro.gridpocket import DatasetSpec, METER_SCHEMA, upload_dataset
from repro.gridpocket.generator import MeterDataGenerator
from repro.sql.types import Schema
from repro.swift import SwiftClient, SwiftCluster


@pytest.fixture
def swift() -> SwiftCluster:
    return SwiftCluster(
        storage_node_count=3, disks_per_node=2, proxy_count=2, part_power=6
    )


@pytest.fixture
def client(swift: SwiftCluster) -> SwiftClient:
    return SwiftClient(swift, "AUTH_test")


@pytest.fixture
def small_schema() -> Schema:
    return Schema.of("vid", "date", "index:float", "city")


SMALL_SPEC = DatasetSpec(meters=25, intervals=96, objects=3)


@pytest.fixture(scope="session")
def small_dataset_rows():
    """Typed rows of the canonical small test dataset (deterministic)."""
    return list(MeterDataGenerator(SMALL_SPEC).rows())


@pytest.fixture(scope="session")
def _scoop_session():
    """One Scoop stack shared across the session (read-only usage)."""
    ctx = ScoopContext(chunk_size=48 * 1024)
    upload_dataset(ctx.client, "meters", SMALL_SPEC)
    ctx.register_csv_table(
        "largeMeter", "meters", schema=METER_SCHEMA, pushdown=True
    )
    ctx.register_csv_table(
        "largeMeterPlain", "meters", schema=METER_SCHEMA, pushdown=False
    )
    return ctx


@pytest.fixture
def scoop(_scoop_session) -> ScoopContext:
    """The shared Scoop stack with transfer metrics reset per test."""
    _scoop_session.connector.metrics.reset()
    return _scoop_session


@pytest.fixture
def fresh_scoop() -> ScoopContext:
    """A private Scoop stack for tests that mutate state."""
    return ScoopContext(chunk_size=48 * 1024)
