"""Append-only run ledger: the longitudinal memory of the pipeline.

Every :meth:`~repro.runner.runner.SuiteRunner.run` sweep appends one
JSON line to an on-disk ledger — config/engine/version hashes, the
:class:`~repro.runner.runner.RunManifest` accounting, an optional
:meth:`~repro.obs.metrics.MetricsRegistry.dump` snapshot, and a per-pair
digest of the 20 microarchitecture-independent characteristics (the
paper's Table VIII vector).  The drift watchdog (:mod:`repro.obs.drift`)
reads this history back to compute robust baselines and flag runs whose
reproduced characteristics move away from the paper's numbers.

The ledger lives under the result-cache directory by default
(``<cache dir>/ledger.jsonl``) and can be pointed anywhere with the
``REPRO_LEDGER`` environment variable or an explicit path.

Durability contract:

* **Appends are whole-line atomic.**  Each record is one ``os.write``
  of one ``\\n``-terminated line on an ``O_APPEND`` descriptor, so two
  runner processes appending concurrently interleave whole records,
  never halves.  An append after a torn last line starts a new line.
* **Reads are salvage-friendly.**  A truncated or corrupt line (a run
  killed mid-write, a partial disk) is skipped with a warning; every
  well-formed record around it is still returned.
* **Writes are best-effort.**  The runner never fails a sweep because
  the ledger was unwritable; the sweep's counters are already in hand.

The result cache's shards (:mod:`repro.runner.cache`) keep the same
contract through the same two helpers, :func:`append_line` and
:func:`salvage_jsonl`.

A line is the record's canonical JSON (:func:`repro.hashing.canonical_json`:
sorted keys, no spaces).  :func:`build_run_record` encodes each record
once: ``run_id`` hashes those bytes, and the line is the same bytes with
``run_id`` spliced in at its sorted place.
"""

from __future__ import annotations

import bisect
import fcntl
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..hashing import canonical_fields, canonical_json
from ..hashing import content_hash as _content_hash

#: Ledger record schema version, stamped on every line.
LEDGER_SCHEMA = 1

#: Environment variable overriding the ledger file location.
LEDGER_ENV = "REPRO_LEDGER"

#: The kind of record a sweep appends.  :meth:`RunLedger.runs` skips
#: other kinds, such as the ``bench`` lines of older ledgers.
KIND_RUN = "run"


#: The packages whose frames a salvage warning skips: the readers of
#: ledger and trace files (``repro.obs``) and of cache shards
#: (``repro.runner``).
_READER_PACKAGES = tuple(
    __name__.split(".")[0] + "." + name for name in ("obs", "runner")
)


class LedgerError(ReproError):
    """Raised for ledger misuse (bad path, unresolvable run reference)."""


def _caller_stacklevel() -> int:
    """The ``stacklevel`` that attributes a warning its caller raises to
    the first frame outside :data:`_READER_PACKAGES`: the code that asked
    for the records, however many reader frames it reached them through."""
    frame, level = sys._getframe(1), 1
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if not any(module == package or module.startswith(package + ".")
                   for package in _READER_PACKAGES):
            break
        frame, level = frame.f_back, level + 1
    return level


def salvage_jsonl(
    path, label: str, noun: str, required: str
) -> List[Dict[str, object]]:
    """Every JSON object line of ``path`` that holds ``required``, in
    file order.

    The read half of the durability contract, shared by ledger, trace
    and cache shard files.  A line that is not valid JSON (a writer
    killed mid-line, a partial disk, bytes that are not UTF-8) or is not
    a ``noun`` record is skipped with a warning naming
    ``<label> <path>:<line>``, attributed to the first caller outside
    :mod:`repro.obs` and :mod:`repro.runner`; blank lines are ignored.
    Raises ``OSError`` when the file cannot be opened.
    """
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    records: List[Dict[str, object]] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            # On bytes, a line that is not UTF-8 raises
            # UnicodeDecodeError, which is a ValueError.
            record = json.loads(text)
        except ValueError:
            warnings.warn(
                "%s %s:%d is not valid JSON; skipping the line"
                % (label, path, lineno),
                stacklevel=_caller_stacklevel(),
            )
            continue
        if not isinstance(record, dict) or required not in record:
            warnings.warn(
                "%s %s:%d is not a %s record; skipping the line"
                % (label, path, lineno, noun),
                stacklevel=_caller_stacklevel(),
            )
            continue
        records.append(record)
    return records


def append_line(path: Path, line: bytes) -> None:
    """Append one ``\\n``-terminated ``line`` to ``path`` in one write.

    The write half of the durability contract, shared by the ledger and
    the cache shards.  The file is opened ``O_APPEND`` and closed again,
    so concurrent appenders interleave whole lines and no descriptor
    outlives the call.  When the file does not end in a newline (a
    writer died mid-line), the line starts with one, so the torn line
    never swallows this one.  An exclusive ``flock`` spans that check
    and the write: without it the check can read the last byte while
    another appender's line is still landing, and start this line with
    a newline that leaves a blank line behind.  Creates the parent
    directory on first use; raises ``OSError`` when the file cannot be
    written.
    """
    flags = os.O_RDWR | os.O_CREAT | os.O_APPEND
    try:
        fd = os.open(str(path), flags, 0o644)
    except FileNotFoundError:
        # Only the first append pays for creating the directory.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(path), flags, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            line = b"\n" + line
        os.write(fd, line)
    finally:
        os.close(fd)


def default_ledger_path(cache_dir=None) -> Path:
    """``$REPRO_LEDGER`` if set, else ``<cache dir>/ledger.jsonl``."""
    from ..paths import default_cache_dir

    override = os.environ.get(LEDGER_ENV)
    if override:
        return Path(override)
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "ledger.jsonl"


def characteristic_digest(report) -> Dict[str, float]:
    """The 20 Table-VIII characteristics of one pair, by feature name.

    This is the per-pair payload the drift detector baselines: the same
    vector :func:`repro.core.features.feature_vector` feeds into PCA,
    keyed by :data:`~repro.core.features.FEATURE_NAMES`.
    """
    # Imported lazily: core.features pulls in the perf package, which
    # imports back into repro.obs at module load.
    from ..core.features import FEATURE_NAMES, feature_vector

    vector = feature_vector(report)
    return {name: float(value) for name, value in zip(FEATURE_NAMES, vector)}


class RunRecord(dict):
    """A run record that carries its own ledger line.

    :func:`build_run_record` returns one; :meth:`RunLedger.append`
    writes :attr:`line` as it is instead of encoding the record again,
    and drops it, so appending the record again encodes it afresh.  The
    line is the record as built, so change a copy (``dict(record)``)
    rather than the record itself before appending it.
    """

    __slots__ = ("line",)

    def __reduce__(self):
        # Copies and pickles are plain dicts, so a changed copy never
        # carries the original's line.
        return dict, (dict(self),)


def build_run_record(
    manifest,
    reports: Dict[str, object],
    config,
    sample_ops: int,
    warmup_fraction: float,
    engine: str,
    metrics: Optional[Dict[str, object]] = None,
    timestamp: Optional[float] = None,
) -> RunRecord:
    """Assemble one sweep's ledger record (not yet appended).

    The ``run_id`` is a short content hash over the whole record
    (timestamp included), so re-running the same sweep yields distinct
    ids while the payload itself stays deterministic.  The record is
    encoded once: the bytes ``run_id`` hashes become its ledger line.
    """
    from .. import __version__

    record = RunRecord({
        "schema": LEDGER_SCHEMA,
        "kind": KIND_RUN,
        "time": float(timestamp) if timestamp is not None else time.time(),
        "code_version": __version__,
        "config_hash": _content_hash(config),
        "engine": engine,
        "sample_ops": sample_ops,
        "warmup_fraction": warmup_fraction,
        "manifest": manifest.as_dict(),
        "metrics": metrics,
        "pairs": {
            name: characteristic_digest(report)
            for name, report in sorted(reports.items())
        },
    })
    fields = canonical_fields(record)
    run_id = hashlib.sha256(
        ("{%s}" % ",".join(fields)).encode("utf-8")
    ).hexdigest()[:12]
    fields.insert(bisect.bisect(sorted(record), "run_id"),
                  '"run_id":"%s"' % run_id)
    record["run_id"] = run_id
    record.line = ("{%s}\n" % ",".join(fields)).encode("utf-8")
    return record


def comparability_key(record: Dict[str, object]) -> tuple:
    """What must match before two run records are drift-comparable.

    Deliberately *excludes* ``code_version``: characteristic movement
    across code changes is exactly the regression the watchdog exists
    to catch.
    """
    return (
        record.get("config_hash"),
        record.get("engine"),
        record.get("sample_ops"),
        record.get("warmup_fraction"),
    )


class RunLedger:
    """Append-only JSONL store of run records.

    Args:
        path: Explicit ledger file.  ``None`` resolves via
            ``$REPRO_LEDGER``, then ``<cache_dir>/ledger.jsonl``.
        cache_dir: Directory the default path hangs off (ignored when
            ``path`` is given or the environment override is set).
    """

    def __init__(self, path=None, cache_dir=None):
        self.path = Path(path) if path is not None else default_ledger_path(
            cache_dir
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RunLedger(%r)" % str(self.path)

    # -- writing ----------------------------------------------------------

    def append(self, record: Dict[str, object]) -> Dict[str, object]:
        """Append one record as a single whole-line write; returns it.

        Each call opens the file ``O_APPEND``, writes the line in one
        ``os.write`` and closes it again, so concurrent appenders
        interleave whole records and no descriptor outlives the call.
        Raises ``OSError`` on an unwritable ledger — callers on the
        sweep path swallow it (best-effort contract).
        """
        line = getattr(record, "line", None)
        if line is None:
            line = (canonical_json(record) + "\n").encode("utf-8")
        else:
            # A line is written once: a record kept after its append
            # (the runner's last_run_record) holds no copy of its bytes.
            del record.line
        append_line(self.path, line)
        return record

    # -- reading ----------------------------------------------------------

    def records(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Every well-formed record, in append order.

        Corrupt or truncated lines — typically a trailing half-line from
        a killed writer — are skipped with a warning rather than raised
        (see :func:`salvage_jsonl`): the salvageable history is worth
        more than the broken tail.  A missing ledger reads as empty.
        """
        try:
            records = salvage_jsonl(self.path, "ledger", "ledger", "schema")
        except OSError:
            return []
        if kind is None:
            return records
        return [record for record in records if record.get("kind") == kind]

    def runs(self) -> List[Dict[str, object]]:
        """Every sweep record, oldest first."""
        return self.records(kind=KIND_RUN)

    def resolve(
        self, ref: str, runs: Optional[List[Dict[str, object]]] = None
    ) -> Dict[str, object]:
        """Find one *run* record by id prefix or by index.

        ``ref`` may be a ``run_id`` prefix (``"3fa9"``) or an integer
        index into the run history — Python semantics, so ``-1`` is the
        latest run and ``0`` the oldest.  ``runs`` is :meth:`runs`, when
        the caller has read it already.
        """
        if runs is None:
            runs = self.runs()
        if not runs:
            raise LedgerError("ledger %s holds no runs" % self.path)
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None:
            try:
                return runs[index]
            except IndexError:
                raise LedgerError(
                    "run index %d out of range (%d runs in %s)"
                    % (index, len(runs), self.path)
                ) from None
        matches = [
            record for record in runs
            if str(record.get("run_id", "")).startswith(ref)
        ]
        if not matches:
            raise LedgerError(
                "no run id starting with %r in %s" % (ref, self.path)
            )
        if len(matches) > 1:
            raise LedgerError(
                "run id %r is ambiguous in %s (matches %s)"
                % (ref, self.path,
                   ", ".join(str(m.get("run_id")) for m in matches))
            )
        return matches[0]

    def comparable_history(
        self,
        current: Dict[str, object],
        runs: Optional[List[Dict[str, object]]] = None,
    ) -> List[Dict[str, object]]:
        """Prior runs collected under the same setup as ``current``.

        "Same setup" is :func:`comparability_key` — config, engine, and
        sample parameters, but *not* code version.  The current record
        itself (matched by ``run_id``) is excluded.  ``runs`` is
        :meth:`runs`, when the caller has read it already.
        """
        key = comparability_key(current)
        current_id = current.get("run_id")
        return [
            record for record in (self.runs() if runs is None else runs)
            if comparability_key(record) == key
            and record.get("run_id") != current_id
        ]


def render_history(
    runs: Sequence[Dict[str, object]], limit: Optional[int] = None
) -> str:
    """The table ``repro obs history`` prints (newest last)."""
    shown = list(runs)[-limit:] if limit else list(runs)
    header = "%-12s %-19s %-8s %6s %5s %7s %5s %9s" % (
        "run_id", "time", "engine", "pairs", "hits", "misses", "fail",
        "wall_s",
    )
    lines = [header, "-" * len(header)]
    for record in shown:
        manifest = record.get("manifest") or {}
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(float(record.get("time", 0)))
        )
        lines.append(
            "%-12s %-19s %-8s %6d %5d %7d %5d %9.2f"
            % (
                record.get("run_id", "?"),
                stamp,
                record.get("engine", "?"),
                int(manifest.get("total_pairs", 0)),
                int(manifest.get("cache_hits", 0)),
                int(manifest.get("cache_misses", 0)),
                int(manifest.get("failures", 0)),
                float(manifest.get("wall_time_seconds", 0.0)),
            )
        )
    lines.append("%d run(s)" % len(shown))
    return "\n".join(lines)


def diff_runs(
    a: Dict[str, object],
    b: Dict[str, object],
    threshold: float = 0.01,
) -> List[str]:
    """Human-readable per-characteristic deltas between two run records.

    Reports every shared pair/characteristic whose relative change from
    ``a`` to ``b`` exceeds ``threshold``, plus pairs present in only one
    record and the headline manifest movement.
    """
    lines: List[str] = []
    pairs_a: Dict[str, Dict[str, float]] = a.get("pairs") or {}
    pairs_b: Dict[str, Dict[str, float]] = b.get("pairs") or {}
    only_a = sorted(set(pairs_a) - set(pairs_b))
    only_b = sorted(set(pairs_b) - set(pairs_a))
    if only_a:
        lines.append("only in %s: %s" % (a.get("run_id"), ", ".join(only_a)))
    if only_b:
        lines.append("only in %s: %s" % (b.get("run_id"), ", ".join(only_b)))
    for pair in sorted(set(pairs_a) & set(pairs_b)):
        digest_a, digest_b = pairs_a[pair], pairs_b[pair]
        for name in sorted(set(digest_a) & set(digest_b)):
            va, vb = float(digest_a[name]), float(digest_b[name])
            scale = max(abs(va), abs(vb))
            if scale <= 0.0:
                continue
            rel = abs(vb - va) / scale
            if rel > threshold:
                lines.append(
                    "%-28s %-38s %14.6g -> %-14.6g (%+.2f%%)"
                    % (pair, name, va, vb,
                       100.0 * (vb - va) / va if va else float("inf"))
                )
    manifest_a = a.get("manifest") or {}
    manifest_b = b.get("manifest") or {}
    for field in ("total_pairs", "cache_hits", "cache_misses", "failures"):
        va, vb = manifest_a.get(field), manifest_b.get(field)
        if va != vb:
            lines.append("manifest.%s: %s -> %s" % (field, va, vb))
    return lines
