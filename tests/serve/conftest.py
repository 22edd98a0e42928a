"""Shared helpers for the network-tier tests.

No pytest-asyncio in the toolchain: every test drives its scenario with
a plain ``asyncio.run``.  The ``running_server`` fixture returns an
async context manager that boots a :class:`TaraServer` on an ephemeral
port and drains it on exit, so tests never collide on ports and never
leak sockets.
"""

from __future__ import annotations

import contextlib
from typing import AsyncIterator, Union

import pytest

from repro.core import TaraKnowledgeBase
from repro.serve import ServeConfig, TaraServer
from repro.service import TaraService


@pytest.fixture()
def running_server():
    """Factory fixture: ``async with running_server(kb_or_service, **cfg)``."""

    @contextlib.asynccontextmanager
    async def _run(
        source: Union[TaraKnowledgeBase, TaraService], **overrides: object
    ) -> AsyncIterator[TaraServer]:
        config = ServeConfig(port=0, **overrides)  # type: ignore[arg-type]
        service = (
            source
            if isinstance(source, TaraService)
            else TaraService(source, cache_bytes=config.response_cache_bytes)
        )
        server = TaraServer(service, config)
        await server.start()
        try:
            yield server
        finally:
            await server.stop()

    return _run
