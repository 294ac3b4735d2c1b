"""The benchmark's three workloads: their inputs, one timed op each, and
the output digest every op is checked against.

An op runs in a process of its own (see ``run.py``): ``prepare`` builds the
inputs and runners, then ``timed()`` makes the one call that is timed, and
``finish`` digests the outputs and reads the resource counters.  The
workload seed only permutes the order of the inputs; no output depends on
that order, so one digest per workload holds for every seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional

WORKLOADS = ("sweep_cold", "design_sweep", "run_all_warm")

#: Predictor families and L3 scale factors crossed by ``design_sweep``.
PREDICTORS = ("bimodal", "gshare", "two_level", "tournament")
L3_SCALES = (1.0, 0.25)

#: The pairs the scalar/vector parity check runs (the engine benchmark's
#: five pairs, copied so that benchmark may go away without this one).
PARITY_PAIRS = (
    "505.mcf_r", "525.x264_r", "548.exchange2_r", "503.bwaves_r", "519.lbm_r",
)


@dataclasses.dataclass(frozen=True)
class Scale:
    """How big one op is.  ``full`` is the benchmark; ``tiny`` is the
    smoke-test size, with digests of its own."""

    name: str
    sample_ops: int
    #: Keep only the first N pairs of each list (None keeps all).
    pair_limit: Optional[int]
    setup_samples: int


FULL = Scale("full", 60_000, None, 7)
TINY = Scale("tiny", 2_000, 6, 2)


@dataclasses.dataclass
class Op:
    """One prepared op: call ``timed`` once, then ``finish``."""

    timed: Callable[[], object]
    #: ``finish(result) -> dict`` with "digest", "pairs" (per-pair
    #: seconds), "pair_count", "failures", "retries", "ledger_bytes".
    finish: Callable[[object], Dict[str, object]]


def report_digest(groups) -> str:
    """sha256 over CounterReports sorted by (config, pair).

    ``groups`` yields ``(config_label, {pair: report})``.  Floats go
    through ``repr`` via JSON, so the digest changes on any bit flip.
    """
    rows = sorted(
        (label, pair, sorted(dict(report).items()))
        for label, reports in groups
        for pair, report in reports.items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def stdout_digest(text: str, exp_ids: List[str]) -> str:
    """sha256 over ``run`` stdout cut per experiment at each ``[id] ``
    header, keyed by id (``exp_ids`` in the order they printed)."""
    text = "\n" + text
    starts = []
    position = 0
    for exp_id in exp_ids:
        index = text.find("\n[%s] " % exp_id, position)
        if index < 0:
            raise ValueError("no output block for experiment %r" % exp_id)
        position = index + 1
        starts.append(position)
    ends = starts[1:] + [len(text)]
    blocks = sorted(
        (exp_id, text[start:end])
        for exp_id, start, end in zip(exp_ids, starts, ends)
    )
    return hashlib.sha256(json.dumps(blocks).encode()).hexdigest()


def _manifest_stats(manifests) -> Dict[str, object]:
    """Per-pair seconds and failure/retry counts from manifest dicts."""
    records = [record for manifest in manifests for record in manifest["records"]]
    return {
        "pairs": [record["seconds"] for record in records],
        "pair_count": len(records),
        "failures": sum(1 for record in records if record["error"]),
        "retries": sum(max(0, record["attempts"] - 1) for record in records),
    }


def _limit(pairs, scale: Scale) -> list:
    pairs = list(pairs)
    return pairs if scale.pair_limit is None else pairs[: scale.pair_limit]


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


def prepare(workload: str, scale: Scale, workdir: str, rng) -> Op:
    """Build one op of ``workload``: everything before its timed call."""
    import repro.api as api

    if workload == "sweep_cold":
        # The 223 pairs `run all` characterizes, simulated inline with no
        # cache and no ledger: the simulation hot path and nothing else.
        pairs = _limit(api.cpu2017().pairs(size=None), scale) + _limit(
            api.cpu2006().pairs(size=api.InputSize.REF), scale
        )
        rng.shuffle(pairs)
        runner = api.SuiteRunner(
            sample_ops=scale.sample_ops, workers=1,
            use_cache=False, use_ledger=False,
        )

        def finish(result):
            stats = _manifest_stats([result.manifest.as_dict()])
            stats["digest"] = report_digest([("table1", result.reports)])
            stats["ledger_bytes"] = 0
            return stats

        return Op(lambda: runner.run(pairs), finish)

    if workload == "design_sweep":
        # The REF pairs on 8 configs, each through a pooled runner writing
        # a fresh cache and ledger: the pool, the cache/ledger write path
        # and the predictor/geometry paths the default config never takes.
        base = api.haswell_e5_2650l_v3()
        configs = [
            ("%s-l3x%s" % (predictor, factor),
             base.with_predictor(predictor).with_l3_scaled(factor))
            for predictor in PREDICTORS for factor in L3_SCALES
        ]
        rng.shuffle(configs)
        pairs = _limit(api.cpu2017().pairs(size=api.InputSize.REF), scale)
        cache_dir = tempfile.mkdtemp(prefix="design-", dir=workdir)
        plan = [
            (label,
             api.SuiteRunner(config=config, sample_ops=scale.sample_ops,
                             workers=2, cache_dir=cache_dir),
             rng.sample(pairs, len(pairs)))
            for label, config in configs
        ]

        def timed():
            return [(label, runner.run(order)) for label, runner, order in plan]

        def finish(results):
            stats = _manifest_stats(
                [result.manifest.as_dict() for _, result in results]
            )
            stats["digest"] = report_digest(
                (label, result.reports) for label, result in results
            )
            stats["ledger_bytes"] = _file_size(
                os.path.join(cache_dir, "ledger.jsonl")
            )
            shutil.rmtree(cache_dir, ignore_errors=True)
            return stats

        return Op(timed, finish)

    if workload == "run_all_warm":
        # `repro run all --jobs 1` on a cache filled beforehand: cache
        # reads, core, stats and reports; no simulation at all.  The seed
        # orders nothing here: out of registry order the experiments do
        # different work, not the same work in another order (fig8 and
        # table8 then reach the PCA's per-pair reports before the runner
        # has bulk-loaded them, and simulate them again, uncached).
        from repro.reports import cli

        exp_ids = list(cli.EXPERIMENT_IDS)
        cache_dir = os.path.join(workdir, "run_all_cache")
        ledger = os.path.join(cache_dir, "ledger.jsonl")
        # Each op starts on an empty ledger: only the cache carries over.
        with contextlib.suppress(FileNotFoundError):
            os.remove(ledger)
        argv = ["run", "all", "--jobs", "1", "--cache-dir", cache_dir,
                "--sample-ops", str(scale.sample_ops)]
        out, err = io.StringIO(), io.StringIO()

        def timed():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)

        def finish(code):
            if code != 0:
                raise RuntimeError(
                    "repro run exited %r: %s" % (code, err.getvalue()[-500:])
                )
            with open(ledger) as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            stats = _manifest_stats([record["manifest"] for record in records])
            stats["digest"] = stdout_digest(out.getvalue(), exp_ids)
            stats["ledger_bytes"] = _file_size(ledger)
            return stats

        return Op(timed, finish)

    raise ValueError("unknown workload %r (valid: %s)"
                     % (workload, ", ".join(WORKLOADS)))


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def peak_rss_mb() -> float:
    """Largest RSS of this process and of every child it has waited for
    (the pool workers), in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def run_op(workload: str, scale: Scale, workdir: str, rng,
           around: Optional[Callable] = None) -> Dict[str, object]:
    """Prepare, time and finish one op in the calling process.

    ``around(timed)`` may wrap the timed call (the traced run opens its
    root span there); it must return the call's result.
    """
    fds_before = open_fds()
    op = prepare(workload, scale, workdir, rng)
    # The garbage of prepare and the forked parent's objects are collected
    # here, not inside the timed call, where a new CLI process has neither.
    gc.collect()
    started = time.perf_counter()
    result = op.timed() if around is None else around(op.timed)
    wall = time.perf_counter() - started
    outcome = op.finish(result)
    # Runners are unreachable from here on: a descriptor still open after
    # the collection is one nothing can close any more.
    del op, result
    gc.collect()
    outcome.update(
        wall=wall,
        rss_mb=peak_rss_mb(),
        fds_leaked=open_fds() - fds_before,
    )
    return outcome


def check_parity(sample_ops: int) -> List[Dict[str, object]]:
    """``SimulatedCore.run`` with the scalar engine against the vector
    engine on :data:`PARITY_PAIRS`: equal field by field, and timed."""
    import repro.api as api

    config = api.haswell_e5_2650l_v3()
    suite = api.cpu2017()
    generator = api.TraceGenerator(config)
    core = api.SimulatedCore(config)
    results = []
    for name in PARITY_PAIRS:
        profile = suite.get(name).profile(api.InputSize.REF)
        trace = generator.generate(profile, n_ops=sample_ops)
        timings, fields = {}, {}
        for engine in ("scalar", "vector"):
            started = time.perf_counter()
            fields[engine] = dataclasses.asdict(core.run(trace, engine=engine))
            timings[engine] = time.perf_counter() - started
        diverged = sorted(
            key for key in fields["scalar"]
            if fields["scalar"][key] != fields["vector"][key]
        )
        results.append({
            "pair": name,
            "error": ("scalar and vector disagree on " + ", ".join(diverged))
            if diverged else None,
            "scalar_s": timings["scalar"],
            "vector_s": timings["vector"],
        })
    return results
