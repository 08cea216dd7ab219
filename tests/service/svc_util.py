"""Service-test helpers: a live background server and a urllib client.

Kept in a uniquely named module (not ``conftest``) so test files can
import the helpers directly without colliding with the suite-level
``tests/conftest.py``.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

from repro.service import JobService, ServiceConfig


class ServiceClient:
    """A minimal urllib-based client for one live :class:`JobService`."""

    def __init__(self, service: JobService) -> None:
        """Wrap ``service`` (already started in the background)."""
        self.service = service
        self.base = service.url

    def get(self, path: str) -> "tuple[int, bytes]":
        """``GET path`` → (status, body bytes); HTTP errors are returned."""
        try:
            with urllib.request.urlopen(self.base + path) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def get_json(self, path: str) -> "tuple[int, dict]":
        """``GET path`` decoded as JSON."""
        status, body = self.get(path)
        return status, json.loads(body)

    def post_json(self, path: str, payload: object) -> "tuple[int, dict]":
        """``POST path`` with a JSON body, decoded JSON response."""
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def wait(self, job_id: str, timeout: float = 30.0) -> dict:
        """Poll ``/v1/jobs/<id>`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, state = self.get_json(f"/v1/jobs/{job_id}")
            assert status == 200, state
            if state["state"] in ("done", "failed"):
                return state
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def crash_worker_entry(spec_document: dict, cache_dir, queue) -> None:
    """A job-worker stand-in that dies at once without reporting.

    Module-level so the ``spawn`` start method can pickle it by name;
    ``os._exit`` skips every cleanup handler, like an OOM kill would.
    """
    os._exit(9)


def make_service(store_dir, *, jobs: int = 2, executor=None) -> JobService:
    """Start a background service on an ephemeral port; caller shuts down.

    With no explicit ``executor`` the service builds its own
    :class:`~repro.service.app.InlineExecutor` over the store's shared
    cache — the production wiring, minus the process hop.
    """
    config = ServiceConfig(
        host="127.0.0.1", port=0, store_dir=store_dir, jobs=jobs, inline=True
    )
    service = JobService(config, executor=executor)
    service.start()
    service.start_background()
    return service
