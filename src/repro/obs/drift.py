"""Drift watchdog: cross-run regression and paper-fidelity detection.

Reads run records out of the :class:`~repro.obs.ledger.RunLedger` and
answers two questions about the newest sweep:

1. **Did anything move?**  For every pair and each of the 20
   microarchitecture-independent characteristics, the comparable ledger
   history (same config hash, engine, and sample parameters) yields a
   robust baseline — median plus MAD — and the current value is scored
   with the modified z-score ``0.6745 * (x - median) / MAD``.  Scores
   beyond the threshold flag the characteristic as drifted.  MAD is zero
   for the many characteristics that are bit-identical run over run
   (the simulation is deterministic under a fixed setup), so a relative
   fallback tolerance catches any deviation there.  Wall times are too
   noisy for median+MAD; they get an EWMA baseline and a generous
   relative band, and their outliers are *warnings* by default (CI boxes
   jitter), escalatable with ``fail_on_wall``.

2. **Are we still the paper?**  Each reproduced characteristic is scored
   against the value the paper anchors through the pair's
   :class:`~repro.workloads.profile.WorkloadProfile` — relative error
   against the anchor, with a tolerance band wide enough for sampling
   noise at small trace lengths.  This is the longitudinal version of
   the fidelity checks the paper itself runs on its cluster-subset
   estimates.

:meth:`DriftReport.render` is the one place a pass's numbers are read:
the pairs and comparisons it made, the comparable history it used, and
every finding and warning with its score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .ledger import RunLedger

#: Modified z-score constant: for normal data, MAD * 1.4826 estimates
#: sigma, so 0.6745 * (x - median) / MAD is comparable to a z-score.
_MAD_Z = 0.6745


def median(values: Sequence[float]) -> float:
    """Plain median (values need not be sorted)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: the median)."""
    if center is None:
        center = median(values)
    return median([abs(value - center) for value in values])


def ewma(values: Sequence[float], alpha: float) -> float:
    """Exponentially weighted moving average, oldest to newest."""
    iterator = iter(values)
    state = float(next(iterator))
    for value in iterator:
        state = alpha * float(value) + (1.0 - alpha) * state
    return state


def robust_score(value: float, history: Sequence[float]) -> Tuple[float, float]:
    """(modified z-score, baseline median) of ``value`` given history.

    When the history has zero spread (MAD of 0 — the common case for a
    deterministic simulation), the score degrades to the *relative*
    deviation from the median scaled so the caller's z-threshold still
    applies: any relative deviation beyond ``rel_fallback`` in
    :class:`DriftThresholds` maps above the z cut (see
    :meth:`DriftDetector._score_characteristic`).
    """
    center = median(history)
    spread = mad(history, center)
    if spread > 0.0:
        return _MAD_Z * (value - center) / spread, center
    # Degenerate spread: signal with infinity iff there is any deviation
    # the relative fallback should see; the caller applies the band.
    return float("inf") if abs(value - center) > 0.0 else 0.0, center


@dataclass(frozen=True)
class DriftThresholds:
    """Tuning knobs of the watchdog (all optional, defaults documented).

    Attributes:
        robust_z: Modified z-score beyond which a characteristic with
            non-degenerate history spread counts as drifted.
        rel_fallback: When the history has zero MAD (deterministic
            reruns), any relative deviation from the median beyond this
            fraction counts as drifted.
        min_history: Comparable prior runs required before the median+
            MAD baseline is trusted; with fewer, only the paper-anchor
            check runs.
        ewma_alpha: Smoothing factor of the wall-time EWMA baseline
            (weight of the newest historical run).
        wall_tolerance: Fraction by which the current sweep's wall time
            may exceed the EWMA baseline before a wall warning fires.
        paper_rtol: Relative error band for the paper-anchor fidelity
            check.
        paper_atol_pct: Absolute slack, in percentage points, granted to
            the ``(%)``-suffixed mix characteristics — small-percentage
            subtypes carry sampling noise that relative error magnifies.
        noise_z: Sigmas of binomial sampling noise folded into the
            paper-anchor band (see :func:`sampling_rel_sigma`): rare
            branch subtypes at small ``sample_ops`` are honest noise,
            not infidelity, and the allowance shrinks as ``1/sqrt(k)``
            when traces grow.
        fail_on_wall: Escalate wall-time outliers from warnings to
            failures (off by default: CI wall clocks jitter).
    """

    robust_z: float = 3.5
    rel_fallback: float = 0.01
    min_history: int = 3
    ewma_alpha: float = 0.3
    wall_tolerance: float = 0.5
    paper_rtol: float = 0.10
    paper_atol_pct: float = 1.0
    noise_z: float = 5.0
    fail_on_wall: bool = False


@dataclass(frozen=True)
class DriftFinding:
    """One flagged pair/characteristic (or wall-time outlier)."""

    kind: str                 # "drift" | "fidelity" | "wall"
    pair: str
    characteristic: str
    value: float
    baseline: float
    score: float              # robust z (drift), relative error (fidelity/wall)

    def describe(self) -> str:
        if self.kind == "drift":
            return (
                "%s %s drifted: %.6g vs baseline median %.6g "
                "(robust z %.2f)"
                % (self.pair, self.characteristic, self.value,
                   self.baseline, self.score)
            )
        if self.kind == "fidelity":
            return (
                "%s %s off the paper anchor: %.6g vs %.6g "
                "(rel error %.2f%%)"
                % (self.pair, self.characteristic, self.value,
                   self.baseline, 100.0 * self.score)
            )
        return (
            "%s %s above EWMA baseline: %.3fs vs %.3fs (+%.1f%%)"
            % (self.pair, self.characteristic, self.value, self.baseline,
               100.0 * self.score)
        )


@dataclass
class DriftReport:
    """Everything one watchdog pass concluded."""

    run_id: str
    history_runs: int
    checked_pairs: int = 0
    #: Characteristics scored against ledger history (the drift check).
    checked_characteristics: int = 0
    #: Characteristics scored against the paper anchors (fidelity).
    checked_anchors: int = 0
    findings: List[DriftFinding] = field(default_factory=list)
    warnings: List[DriftFinding] = field(default_factory=list)
    skipped_pairs: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            "run %s: %d pair(s), %d drift check(s), %d fidelity "
            "check(s), %d comparable prior run(s)"
            % (self.run_id, self.checked_pairs,
               self.checked_characteristics, self.checked_anchors,
               self.history_runs)
        ]
        lines.extend("note: %s" % note for note in self.notes)
        if self.skipped_pairs:
            lines.append(
                "skipped (no paper anchor): %s" % ", ".join(self.skipped_pairs)
            )
        lines.extend(
            "WARNING: %s" % finding.describe() for finding in self.warnings
        )
        lines.extend(
            "DRIFT: %s" % finding.describe() for finding in self.findings
        )
        lines.append(
            "ok" if self.ok else "%d finding(s)" % len(self.findings)
        )
        return "\n".join(lines)


def paper_anchor_vector(profile) -> Dict[str, float]:
    """The 20 characteristics the profile anchors to the paper's numbers.

    Reconstructed from the :class:`WorkloadProfile` the same way the
    trace generator targets them, so a faithful simulation lands inside
    the tolerance band and a mis-calibrated one does not.
    """
    # Imported lazily: core.features reaches back into repro.obs through
    # the perf package at module-import time.
    from ..core.features import FEATURE_NAMES

    mix = profile.mix
    instructions = float(profile.instructions)
    loads = instructions * mix.load_fraction
    stores = instructions * mix.store_fraction
    branches = instructions * mix.branch_fraction
    bmix = mix.branch_mix.as_tuple()
    values = [
        instructions,
        loads,
        stores,
        100.0 * mix.load_fraction,
        100.0 * mix.store_fraction,
        100.0 * mix.memory_fraction,
        branches,
        100.0 * mix.branch_fraction,
        branches * bmix[0],
        branches * bmix[1],
        branches * bmix[2],
        branches * bmix[3],
        branches * bmix[4],
        100.0 * bmix[0],
        100.0 * bmix[1],
        100.0 * bmix[2],
        100.0 * bmix[3],
        100.0 * bmix[4],
        float(profile.memory.rss_bytes),
        float(profile.memory.vsz_bytes),
    ]
    return dict(zip(FEATURE_NAMES, values))


#: First-touch event floor of the trace generator's footprint model
#: (mirrors ``repro.workloads.generator.MIN_TOUCH_EVENTS``): bounds the
#: binomial noise of the rss/vsz estimates at ~1/sqrt(256) relative.
_FOOTPRINT_EVENTS = 256.0


def sampling_rel_sigma(
    name: str, anchor: Dict[str, float], sample_ops: int
) -> float:
    """One-sigma *relative* sampling noise of a characteristic.

    The trace generator realizes branch subtypes and page first-touches
    by seeded random draws, so a characteristic backed by ``k`` expected
    sample events carries ~``1/sqrt(k)`` relative binomial noise.  The
    stratified kind assignment makes the headline counts essentially
    exact, but applying the same bound there costs nothing (their event
    counts are the whole trace).  Returns ``inf`` for characteristics
    with no expected events at this sample size — unobservable, so no
    fidelity claim can be made about them.
    """
    from ..perf import counters as C

    if sample_ops <= 0:
        return 0.0
    if name in ("rss", "vsz"):
        events = _FOOTPRINT_EVENTS
    else:
        instructions = max(float(anchor.get(C.INST_RETIRED, 0.0)), 1.0)
        if name.endswith("(%)"):
            share = float(anchor.get(name, 0.0)) / 100.0
            if name.startswith("branch_") and name != "branch_inst(%)":
                # Subtype shares are ratios over the branch sub-stream.
                denom = (
                    float(anchor.get(C.BR_ALL, 0.0)) / instructions
                    * sample_ops
                )
            else:
                denom = float(sample_ops)
            events = share * denom
        else:
            events = float(anchor.get(name, 0.0)) / instructions * sample_ops
    if events <= 0.0:
        return float("inf")
    return 1.0 / math.sqrt(events)


def _pair_profiles() -> Dict[str, object]:
    """pair_name -> WorkloadProfile over both registered SPEC suites."""
    from ..workloads.spec2006 import cpu2006
    from ..workloads.spec2017 import cpu2017

    profiles: Dict[str, object] = {}
    for suite in (cpu2017(), cpu2006()):
        for app_input in suite.pairs():
            profiles[app_input.pair_name] = app_input.profile
    return profiles


class DriftDetector:
    """Scores one run record against ledger history and paper anchors."""

    def __init__(self, thresholds: Optional[DriftThresholds] = None):
        self.thresholds = thresholds or DriftThresholds()
        self._anchors: Optional[Dict[str, object]] = None

    # -- scoring -----------------------------------------------------------

    def check(
        self,
        current: Dict[str, object],
        history: Sequence[Dict[str, object]],
    ) -> DriftReport:
        """Run both detectors over ``current`` given comparable history."""
        report = DriftReport(
            run_id=str(current.get("run_id", "?")),
            history_runs=len(history),
        )
        self._check_drift(current, history, report)
        self._check_fidelity(current, report)
        self._check_wall(current, history, report)
        return report

    def _check_drift(
        self,
        current: Dict[str, object],
        history: Sequence[Dict[str, object]],
        report: DriftReport,
    ) -> None:
        limits = self.thresholds
        if len(history) < limits.min_history:
            report.notes.append(
                "only %d comparable prior run(s) (< %d): "
                "history baseline not trusted yet"
                % (len(history), limits.min_history)
            )
            return
        pairs: Dict[str, Dict[str, float]] = current.get("pairs") or {}
        for pair, digest in sorted(pairs.items()):
            for name, value in sorted(digest.items()):
                series = [
                    float(record["pairs"][pair][name])
                    for record in history
                    if name in (record.get("pairs") or {}).get(pair, {})
                ]
                if len(series) < limits.min_history:
                    continue
                report.checked_characteristics += 1
                score, center = robust_score(float(value), series)
                if math.isinf(score):
                    # Zero spread: apply the relative fallback band.
                    scale = max(abs(center), 1e-12)
                    rel = abs(float(value) - center) / scale
                    if rel > limits.rel_fallback:
                        report.findings.append(DriftFinding(
                            "drift", pair, name, float(value), center,
                            score,
                        ))
                elif abs(score) > limits.robust_z:
                    report.findings.append(DriftFinding(
                        "drift", pair, name, float(value), center, score,
                    ))

    def _check_fidelity(
        self, current: Dict[str, object], report: DriftReport
    ) -> None:
        limits = self.thresholds
        if self._anchors is None:
            self._anchors = _pair_profiles()
        pairs: Dict[str, Dict[str, float]] = current.get("pairs") or {}
        sample_ops = int(current.get("sample_ops") or 0)
        for pair, digest in sorted(pairs.items()):
            profile = self._anchors.get(pair)
            if profile is None:
                report.skipped_pairs.append(pair)
                continue
            report.checked_pairs += 1
            anchor = paper_anchor_vector(profile)
            for name, value in sorted(digest.items()):
                if name not in anchor:
                    continue
                report.checked_anchors += 1
                expected = anchor[name]
                atol = (
                    limits.paper_atol_pct if name.endswith("(%)") else 0.0
                )
                scale = max(abs(expected), 1e-12)
                error = abs(float(value) - expected)
                rel = error / scale
                noise = sampling_rel_sigma(name, anchor, sample_ops)
                band = atol + (
                    limits.paper_rtol + limits.noise_z * noise
                ) * abs(expected)
                if error > band:
                    report.findings.append(DriftFinding(
                        "fidelity", pair, name, float(value), expected, rel,
                    ))

    def _check_wall(
        self,
        current: Dict[str, object],
        history: Sequence[Dict[str, object]],
        report: DriftReport,
    ) -> None:
        limits = self.thresholds
        if len(history) < limits.min_history:
            return
        series = [
            float((record.get("manifest") or {}).get("wall_time_seconds", 0.0))
            for record in history
        ]
        baseline = ewma(series, limits.ewma_alpha)
        wall = float(
            (current.get("manifest") or {}).get("wall_time_seconds", 0.0)
        )
        if baseline > 0.0 and wall > baseline * (1.0 + limits.wall_tolerance):
            finding = DriftFinding(
                "wall", "(sweep)", "wall_time_seconds", wall, baseline,
                wall / baseline - 1.0,
            )
            if limits.fail_on_wall:
                report.findings.append(finding)
            else:
                report.warnings.append(finding)


def check_ledger(
    ledger: RunLedger,
    thresholds: Optional[DriftThresholds] = None,
) -> Optional[DriftReport]:
    """Watchdog pass over a ledger's newest run.

    Returns ``None`` when the ledger holds no runs (an empty ledger is
    healthy, not broken — ``repro obs check`` exits 0 on it).
    """
    runs = ledger.runs()
    if not runs:
        return None
    current = runs[-1]
    history = ledger.comparable_history(current, runs)
    detector = DriftDetector(thresholds=thresholds)
    return detector.check(current, history)
