"""SQLite connection management: WAL mode, bounded retry, fault point.

One :class:`StoreConnection` wraps one ``sqlite3`` connection with the
durability policy the store promises:

* **WAL journal** — readers never block the (single) writer, and a
  process killed mid-commit leaves a journal SQLite rolls back on the
  next open: the previous committed generation survives intact;
* **transactions** — every mutation runs inside
  :meth:`StoreConnection.transaction`, which takes ``BEGIN IMMEDIATE``
  (so lock conflicts surface at entry, not at commit), trips the
  ``store.commit`` fault point after the writes but *before* COMMIT,
  and rolls back on any failure.  An injected fault therefore proves
  the crash-consistency contract end-to-end;
* **bounded retry-on-locked** — a concurrently-held write lock is
  retried with a deterministic linear backoff, a fixed number of
  times; past the budget a structured :class:`~repro.errors.StoreError`
  (reason ``"locked"``) propagates instead of wedging the caller.

The connection is shared across threads (the debug server archives
recordings from handler threads) behind a reentrant lock, so SQLite's
same-thread check is disabled — serialisation is ours, not SQLite's.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Optional

from repro.errors import InjectedFault, StoreError
from repro.faults import STORE_COMMIT, FaultPlan
from repro.store.schema import ensure_schema

__all__ = ["StoreConnection", "DEFAULT_RETRIES", "DEFAULT_RETRY_WAIT_S"]

#: bounded retry budget for a locked database
DEFAULT_RETRIES = 8
#: base wait between retries (linear backoff: wait * attempt)
DEFAULT_RETRY_WAIT_S = 0.025


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class StoreConnection:
    """One store database: schema-checked, WAL-mode, retry-wrapped."""

    def __init__(self, path: str, faults: Optional[FaultPlan] = None,
                 retries: int = DEFAULT_RETRIES,
                 retry_wait_s: float = DEFAULT_RETRY_WAIT_S):
        self.path = path
        self.faults = faults
        self.retries = max(0, retries)
        self.retry_wait_s = retry_wait_s
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(path, timeout=0.0,
                                         check_same_thread=False)
        except sqlite3.Error as exc:
            raise StoreError("cannot open store %s: %s" % (path, exc),
                             reason="io", path=path) from exc
        self._conn.execute("PRAGMA foreign_keys = ON")
        # WAL is a property of the database file; on :memory: (tests)
        # SQLite reports "memory" and we proceed without it
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        # another opener may hold the write lock while it upgrades
        self._retry(lambda: ensure_schema(self._conn), "open")
        self.closed = False

    # -- transactions ------------------------------------------------------

    @contextmanager
    def transaction(self):
        """Run a write transaction with retry, fault point, rollback.

        Yields the raw connection.  COMMIT happens on clean exit —
        after the ``store.commit`` injection point, so a scheduled
        fault (or a crash at that instant) rolls the whole transaction
        back and the previously committed generation stays readable.
        """
        with self._lock:
            self._require_open()
            self._retry(lambda: self._conn.execute("BEGIN IMMEDIATE"),
                        "begin")
            try:
                yield self._conn
                if self.faults is not None:
                    self.faults.trip(STORE_COMMIT, path=self.path)
                self._retry(self._conn.commit, "commit")
            except InjectedFault as exc:
                self._rollback()
                raise StoreError(
                    "store transaction aborted mid-commit",
                    reason="commit_failed", path=self.path) from exc
            except BaseException:
                self._rollback()
                raise

    def query(self, sql: str, parameters=()):
        """Read-only helper: execute and fetch all rows."""
        with self._lock:
            self._require_open()
            return self._retry(
                lambda: self._conn.execute(sql, parameters).fetchall(),
                "query")

    def execute_commit(self, sql: str, parameters=()) -> None:
        """One autocommitted bookkeeping write (LRU stamps and the
        like) — does NOT pass the ``store.commit`` fault point, which
        guards generation-changing transactions only."""
        with self._lock:
            self._require_open()
            self._retry(lambda: self._conn.execute(sql, parameters),
                        "execute")
            self._retry(self._conn.commit, "commit")

    def close(self) -> None:
        with self._lock:
            if not self.closed:
                self.closed = True
                self._conn.close()

    def __enter__(self) -> "StoreConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise StoreError("store %s is closed" % self.path,
                             reason="closed", path=self.path)

    def _rollback(self) -> None:
        try:
            self._conn.rollback()
        except sqlite3.Error:
            pass

    def _retry(self, operation, what: str):
        """Run *operation*, retrying a bounded number of times while
        the database is locked by another writer."""
        attempt = 0
        while True:
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt >= self.retries:
                    raise StoreError(
                        "store %s failed at %s: %s"
                        % (self.path, what, exc),
                        reason="locked" if _is_locked(exc) else "io",
                        path=self.path, attempts=attempt + 1) from exc
                attempt += 1
                time.sleep(self.retry_wait_s * attempt)
            except sqlite3.DatabaseError as exc:
                raise StoreError(
                    "store %s is corrupt at %s: %s"
                    % (self.path, what, exc), reason="corrupt",
                    path=self.path) from exc
