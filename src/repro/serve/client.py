"""A stdlib-only client for the ``repro serve`` daemon.

:class:`ServeClient` wraps the daemon's JSON API with plain
``urllib.request`` calls — no third-party HTTP stack — so scripts, CI
smoke tests, and the ``repro submit`` subcommand all talk to the daemon
the same way:

>>> client = ServeClient("http://127.0.0.1:8321")
>>> job = client.submit({"benchmark": "lud", "arch": "a100"})
>>> result = client.wait(job["job"])
>>> result["cache_hit"], result["seconds"]

:meth:`ServeClient.wait` long-polls: each ``GET /v1/jobs/<id>/result``
asks the daemon to hold the request (``?wait=<seconds>``) until the job
finishes, so a job costs one request and the answer arrives as soon as
the job is done, not at the next poll tick. A daemon that ignores
``?wait`` answers 202 at once, and ``wait`` falls back to polling.

Resilience is built in, not outsourced to every caller:

* 429 (queue full) and 503 (draining) responses are retried up to
  ``retries`` times with exponential backoff plus jitter, honoring the
  server's ``Retry-After`` header when present — pass ``retries=0`` for
  the raw fail-fast behavior;
* :meth:`wait` distinguishes a *slow* job from a *dead* daemon: a
  transport failure mid-wait re-probes once and then fails fast with a
  clear message instead of silently polling out the full timeout.

Server-side rejections (400, and 429/503 once the retry budget is
spent) raise :class:`ServeError` carrying the HTTP status (``0`` for
transport failures) and the server's error message.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from .jobs import MAX_RESULT_WAIT


class ServeError(Exception):
    """A non-2xx daemon response (or an unreachable daemon)."""

    def __init__(self, message: str, status: int = 0,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        #: the server's Retry-After header, parsed, when it sent one
        self.retry_after = retry_after


#: statuses worth retrying: the server said "not now", not "never"
RETRYABLE = (429, 503)

#: seconds of the HTTP ``timeout`` a long-poll leaves for the daemon's
#: answer to arrive (at most half the timeout)
WAIT_MARGIN = 1.0


class ServeClient:
    """Talks to one ``repro serve`` daemon."""

    def __init__(self, base_url: str = "http://127.0.0.1:8321",
                 timeout: float = 30.0, retries: int = 2,
                 backoff: float = 0.25, max_backoff: float = 8.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.max_backoff = max(self.backoff, float(max_backoff))

    # -- transport -----------------------------------------------------------

    def _retry_delay(self, error: ServeError, attempt: int) -> float:
        """Backoff before retry ``attempt``: the server's ``Retry-After``
        when it sent one, else exponential; jittered either way so N
        rejected clients do not reconverge on the same instant."""
        if error.retry_after is not None:
            base = min(error.retry_after, self.max_backoff)
        else:
            base = min(self.backoff * (2 ** attempt), self.max_backoff)
        return base + random.uniform(0.0, base / 4 if base else 0.05)

    def _call(self, path: str, payload: Optional[Dict[str, Any]] = None,
              accept: tuple = (200,)) -> Dict[str, Any]:
        for attempt in range(self.retries + 1):
            try:
                return self._call_once(path, payload, accept)
            except ServeError as error:
                if error.status not in RETRYABLE \
                        or attempt >= self.retries:
                    raise
                time.sleep(self._retry_delay(error, attempt))

    def _call_once(self, path: str,
                   payload: Optional[Dict[str, Any]] = None,
                   accept: tuple = (200,)) -> Dict[str, Any]:
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        retry_after = None
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                status = response.status
                body = response.read()
        except urllib.error.HTTPError as error:
            status = error.code
            body = error.read()
            try:
                retry_after = float(error.headers.get("Retry-After"))
            except (TypeError, ValueError):
                retry_after = None
        except urllib.error.URLError as error:
            raise ServeError("cannot reach daemon at %s: %s" %
                             (self.base_url, error.reason))
        except OSError as error:
            # e.g. ConnectionResetError when the daemon dies mid-request
            raise ServeError("lost connection to daemon at %s: %s" %
                             (self.base_url, error))
        try:
            decoded = json.loads(body.decode("utf-8")) if body else {}
        except ValueError:
            decoded = {"error": body.decode("utf-8", "replace")}
        if status not in accept:
            raise ServeError(decoded.get("error",
                                         "HTTP %d from %s" % (status, url)),
                             status=status, retry_after=retry_after)
        decoded["_status"] = status
        return decoded

    # -- API -----------------------------------------------------------------

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/tune``; returns ``{"job": ..., "state": ...}``."""
        return self._call("/v1/tune", payload=request)

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — status incl. per-stage progress."""
        return self._call("/v1/jobs/%s" % job_id)

    def result(self, job_id: str, wait: float = 0.0) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>/result``; 202 (still running) is returned
        as the status payload with ``_status == 202``.

        ``wait`` > 0 asks the daemon to hold the request until the job
        finishes, for at most ``wait`` seconds (the daemon caps it at
        :data:`~repro.serve.jobs.MAX_RESULT_WAIT`); it answers 202 when
        the hold runs out. Keep ``wait`` below this client's HTTP
        ``timeout``, or the socket read times out first."""
        path = "/v1/jobs/%s/result" % job_id
        if wait > 0:
            path += "?wait=%.3f" % wait
        return self._call(path, accept=(200, 202))

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Block until the job finishes and return its result.

        Each request long-polls (see :meth:`result`) for the smallest of
        the time left before ``timeout``, :data:`MAX_RESULT_WAIT`, and
        the HTTP ``timeout`` less :data:`WAIT_MARGIN`, so one request per
        job is the norm. ``poll`` is the sleep after a 202: the hold ran
        out, or the daemon predates long-polling and answered at once.

        Raises :class:`ServeError` on a failed job, on deadline expiry,
        or — fast — when the daemon dies mid-wait (transport errors
        re-probe once, then give up)."""
        deadline = time.monotonic() + timeout
        held = self.timeout - min(WAIT_MARGIN, self.timeout / 2.0)
        while True:
            hold = min(deadline - time.monotonic(), MAX_RESULT_WAIT, held)
            try:
                payload = self.result(job_id, wait=max(0.0, hold))
            except ServeError as error:
                if error.status != 0:
                    raise
                # transport failure: slow daemon or dead daemon? one
                # short re-probe decides; a dead daemon fails fast here
                # instead of burning the rest of the wait timeout
                time.sleep(min(1.0, max(poll, 0.2)))
                if self.alive():
                    continue
                raise ServeError(
                    "daemon at %s became unreachable while waiting for "
                    "job %s (%s) — it likely died or restarted; once it "
                    "is back, the job ledger recovers accepted jobs and "
                    "this job id remains pollable" %
                    (self.base_url, job_id, error))
            if payload["_status"] == 200:
                if payload.get("state") == "failed":
                    raise ServeError("job %s failed: %s" %
                                     (job_id, payload.get("error", "")))
                return payload
            if time.monotonic() >= deadline:
                raise ServeError("timed out waiting for job %s "
                                 "(last state: %s)" %
                                 (job_id, payload.get("state")))
            time.sleep(poll)

    def cache_stats(self) -> Dict[str, Any]:
        return self._call("/v1/cache/stats")

    def ledger_stats(self) -> Dict[str, Any]:
        """``GET /v1/ledger`` — WAL occupancy + recovery counters."""
        return self._call("/v1/ledger")

    def fault_stats(self) -> Dict[str, Any]:
        """``GET /v1/faults`` — the daemon's active chaos plan, if any."""
        return self._call("/v1/faults")

    def health(self) -> Dict[str, Any]:
        return self._call("/healthz")

    def alive(self) -> bool:
        """True when the daemon answers ``/healthz`` at all."""
        try:
            self._call_once("/healthz")
            return True
        except ServeError:
            return False
