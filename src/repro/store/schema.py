"""Relational schema of the persistent trace store.

Four tables:

* ``images`` — program images (:attr:`repro.machine.state.ProgramImage.
  encoded`), keyed by their sha-256: the code every keyframe of a run
  is encoded against, stored once however many runs load it.
* ``keyframes`` — content-addressed machine checkpoints.  The digest
  (sha-256 of the payload) is the primary key, so N runs of the same
  deterministic program store each keyframe payload exactly once;
  ``run_keyframes`` rows carry the per-run references.  A payload is
  :func:`repro.machine.state.encode_state`'s canonical bytes: memory,
  registers and MRS bookkeeping, with code as the slots that differ
  from the run's image — equal states have equal bytes, so dedup by
  digest is dedup by state.
* ``runs`` — one row per ingested recording: the run-identity header
  (workload, scale, seed, monitor-set digest, stride), the execution
  statistics (instructions, stores, wall time), the canonical
  write-trace bytes and the digest of its program image (NULL for a
  run ingested without one).  ``run_key`` is the content address — the
  sha-256 of the trace bytes, which embed the metadata header — so
  re-ingesting an identical recording is an idempotent, counted no-op
  (``ingest_count`` increments, no duplicate row).
* ``run_keyframes`` — the many-to-many edge between runs and
  keyframes, with the per-run anchor metadata (instruction index,
  trace position, CRC-32 state digest).  ``ON DELETE CASCADE`` keeps
  the edge table consistent under retention eviction; orphaned
  ``keyframes`` and ``images`` rows are garbage-collected explicitly,
  never while a surviving run still references them.

``user_version`` records the schema generation.  :func:`ensure_schema`
builds a fresh database by running every upgrade from generation 0,
upgrades an older one in place (generation 1 had no ``images``; its
pickled keyframe payloads stay as opaque blobs the store only counts,
dedups and retains), and refuses a database written by a newer
generation instead of silently misreading it.
"""

from __future__ import annotations

from repro.errors import StoreError

#: the generation this build writes
SCHEMA_VERSION = 2

#: generation 1: runs, keyframes and the edge between them
_GENERATION_1 = """
CREATE TABLE IF NOT EXISTS keyframes (
    digest      TEXT PRIMARY KEY,
    payload     BLOB NOT NULL,
    size        INTEGER NOT NULL,
    created_at  REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    run_key       TEXT NOT NULL UNIQUE,
    workload      TEXT NOT NULL,
    scale         REAL,
    seed          INTEGER,
    monitors      TEXT,
    stride        INTEGER,
    lang          TEXT,
    strategy      TEXT,
    optimize      TEXT,
    instructions  INTEGER NOT NULL,
    stores        INTEGER NOT NULL DEFAULT 0,
    wall_time_s   REAL,
    start_index   INTEGER NOT NULL DEFAULT 0,
    end_index     INTEGER NOT NULL DEFAULT 0,
    trace_digest  TEXT NOT NULL,
    trace         BLOB NOT NULL,
    trace_records INTEGER NOT NULL,
    trace_dropped INTEGER NOT NULL DEFAULT 0,
    ingest_count  INTEGER NOT NULL DEFAULT 1,
    created_at    REAL NOT NULL,
    last_access   REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS runs_workload
    ON runs (workload, last_access);

CREATE TABLE IF NOT EXISTS run_keyframes (
    run_id          INTEGER NOT NULL
                    REFERENCES runs (id) ON DELETE CASCADE,
    keyframe_digest TEXT NOT NULL REFERENCES keyframes (digest),
    idx             INTEGER NOT NULL,
    trace_pos       INTEGER NOT NULL,
    state_digest    INTEGER NOT NULL,
    PRIMARY KEY (run_id, idx, keyframe_digest)
);

CREATE INDEX IF NOT EXISTS run_keyframes_digest
    ON run_keyframes (keyframe_digest);
"""

#: generation 2: program images, named by each run
_GENERATION_2 = """
CREATE TABLE images (
    digest      TEXT PRIMARY KEY,
    image       BLOB NOT NULL,
    size        INTEGER NOT NULL,
    created_at  REAL NOT NULL
);

ALTER TABLE runs ADD COLUMN image_digest TEXT REFERENCES images (digest);
"""

#: the DDL that takes generation N to N + 1, by N
UPGRADES = (_GENERATION_1, _GENERATION_2)


def ensure_schema(conn) -> None:
    """Create the schema on a fresh database, upgrade an older
    generation in place, refuse a newer one."""
    if _generation(conn) == SCHEMA_VERSION:
        return
    # one transaction, so a failure mid-upgrade leaves the old
    # generation; the write lock is taken before the generation is read
    # again, so of two openers of one old store only the first upgrades
    conn.execute("BEGIN IMMEDIATE")
    try:
        for script in UPGRADES[_generation(conn):]:
            for statement in script.split(";"):
                conn.execute(statement)
        conn.execute("PRAGMA user_version = %d" % SCHEMA_VERSION)
        conn.commit()
    except BaseException:
        conn.rollback()
        raise


def _generation(conn) -> int:
    (version,) = conn.execute("PRAGMA user_version").fetchone()
    if not 0 <= version <= SCHEMA_VERSION:
        raise StoreError(
            "store schema generation %d is not supported (have %d)"
            % (version, SCHEMA_VERSION), reason="corrupt",
            found=version, supported=SCHEMA_VERSION)
    return version
