"""End-to-end and per-layer benchmark of the reproduction.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it measures the code in ``src/``.  The
workloads, metrics and the layer each metric belongs to are described in
``perfbench/README.md``.

One run sets up ``setup_samples`` fresh interpreters (``setup_s``), then
times ops until ``--seconds`` have passed.  Every op runs in a process
forked from this one, which by then has only imported the code under test,
so no in-memory state carries from one op to the next.  Each op's output
digest is checked against ``digests.json``.  With ``--trace 1`` the ops
rotate through three kinds: untraced, traced (spans around the public
calls, see ``spans.py``) and ``repro.obs.enable()``.  Before timing, every
run also checks the scalar engine against the vector engine.

End-to-end timings are scaled to a reference host speed by probes taken
around each op and each set-up sample (``REF_PROBE_MS``, ``probe.py``);
the figures as measured are printed after them.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` ops, and the metrics (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``).  The exit code is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import ops
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: caches, ledgers, span files.
WORK_ROOT = os.path.join(ROOT, ".perfbench")
#: The output digest every op of a workload must hash to.
DIGESTS = os.path.join(HERE, "digests.json")

#: An op that has not finished after this long is killed and failed.
OP_TIMEOUT_S = 120.0

#: End-to-end timings are reported at the host speed where a probe
#: (``probe.py``) takes this long: each op's times are multiplied by this
#: over the median of the probes taken around it and around its
#: ``PROBE_NEIGHBOURS`` neighbours on each side, each set-up sample's over
#: the probes taken around it.  The shared host's speed drifts by up to
#: 2.5x over minutes, and ops and probe drift together; the code under test
#: cannot move the probe.
REF_PROBE_MS = 20.0
#: A single probe is noisy and a sweep op outlasts it 100 times, yet the
#: host can switch speed within a run: 11 ops take 1.5 to 3.5 s on
#: ``run_all_warm`` and 15 to 30 s on the sweeps.  A set-up sample lasts
#: as long as 20 probes, and its own probes follow the host best.
PROBE_NEIGHBOURS = 5

#: The probe that does the kind of work each workload's ops do (see
#: ``probe.py``); set-up samples, which import, use ``compute``.  Over 12
#: minutes of host drift (5 for set-up), the median times of 30-s windows
#: spread (IQR over median) 18% for ``run_all_warm`` ops, 13% for
#: ``sweep_cold`` ops and 14% for set-up samples as measured; 5%, 9% and 3%
#: over these probes; 10%, 13% and 9% over the other kind.
WORKLOAD_PROBE = {
    "sweep_cold": "compute",
    "design_sweep": "compute",
    "run_all_warm": "lookups",
}

#: How far a traced op's self times may sum from the op's wall: the root
#: span opens and closes microseconds inside the interval ``ops.run_op``
#: times, and a scheduler pause or collection there falls outside it.
ATTRIBUTION_SLACK_S = 1e-3
ATTRIBUTION_SLACK_SHARE = 0.01

END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "pair_ms_p50": "ms",
    "pair_ms_p99": "ms",
    "run_all_ms_p50": "ms",
    "run_all_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.numpy_import_s": "s",
    "setup.suites_ms": "ms",
    "workloads.generate_ms": "ms",
    "workloads.solve_params_ms": "ms",
    "workloads.ops_generated": "count",
    "uarch.analyze_ms": "ms",
    "uarch.exec_ms": "ms",
    **{"uarch.exec_ms." + p: "ms" for p in ops.PREDICTORS},
    "uarch.compose_ms": "ms",
    "uarch.run_ms": "ms",
    "uarch.vector_ratio": "fraction",
    "uarch.sim_mops_per_s": "Mops/s",
    "uarch.scalar_speedup": "x",
    "perf.session_ms": "ms",
    "perf.self_ms": "ms",
    "perf.validate_ms": "ms",
    "runner.self_ms": "ms",
    "runner.cache_key_ms": "ms",
    "runner.cache_load_ms": "ms",
    "runner.cache_store_ms": "ms",
    "runner.hit_ratio": "fraction",
    "runner.pool_utilization": "fraction",
    "runner.pool_overhead_s": "s",
    "runner.worker_first_pair_ms": "ms",
    "runner.retries": "count",
    "runner.failures": "count",
    "obs.ledger_record_ms": "ms",
    "obs.ledger_append_ms": "ms",
    "obs.ledger_bytes_per_op": "bytes",
    "obs.fds_leaked": "count",
    "obs.enabled_overhead_pct": "%",
    "core.characterize_ms": "ms",
    "core.means_ms": "ms",
    "core.features_ms": "ms",
    "core.subset_ms": "ms",
    "stats.pca_ms": "ms",
    "stats.cluster_ms": "ms",
    "reports.render_ms": "ms",
    "host.probe_ms": "ms",
    "trace.overhead_pct": "%",
    "unattributed_ms": "ms",
}


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def in_child(body, *args):
    """Run ``body(*args)`` in a forked process; returns (error, value).

    Forking (not spawning) is the point: the child starts from this
    process's imports but from none of its in-memory state, like a new
    CLI process whose interpreter start-up was already paid.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        os.setpgid(0, 0)
        try:
            payload = (None, body(*args))
        except BaseException:
            payload = (traceback.format_exc(), None)
        try:
            with os.fdopen(write_fd, "wb") as handle:
                pickle.dump(payload, handle)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + OP_TIMEOUT_S
    try:
        with os.fdopen(read_fd, "rb") as handle:
            while True:
                ready, _, _ = select.select(
                    [handle], [], [], max(0.0, deadline - time.monotonic())
                )
                if not ready:
                    raise TimeoutError
                chunk = os.read(handle.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        # Timed out or interrupted: take the op and its pool workers down.
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        if not isinstance(sys.exc_info()[1], TimeoutError):
            raise
        return "op did not finish within %.0f s" % OP_TIMEOUT_S, None
    _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return "op process ended with status %d and no result" % status, None
    return pickle.loads(b"".join(chunks))


class HostProbe:
    """The probe process: ``ms(kind)`` runs one kind of probe there and
    returns its time.  Use it in a ``with`` block, which stops the process
    and waits for it on every way out."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def ms(self, kind: str, repeats: int = 1) -> float:
        samples = []
        for _ in range(repeats):
            self.proc.stdin.write(kind + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("the host probe process ended")
            samples.append(float(line))
        return statistics.median(samples)


class Bench:
    def __init__(self, args, scale: ops.Scale, workdir: str, expected: dict,
                 probe: HostProbe):
        self.workload = args.workload
        self.seconds = args.seconds
        self.trace = args.trace
        self.scale = scale
        self.workdir = workdir
        self.expected = expected.get(args.workload)
        self.rng = random.Random(args.seed)
        self.probe = probe
        self.probe_kind = WORKLOAD_PROBE[args.workload]
        self.attempted = 0
        self.failed = 0
        #: (kind, outcome) of every op that ran to the end.
        self.done = []

    # -- one op -----------------------------------------------------------

    def _op_body(self, kind: str, seed: int) -> dict:
        rng = random.Random(seed)
        if kind == "obs":
            import repro.obs

            repro.obs.enable()
        if kind != "traced":
            return ops.run_op(self.workload, self.scale, self.workdir, rng)
        tracer = spans.Tracer(tempfile.mkdtemp(prefix="spans-", dir=self.workdir))
        spans.install(tracer)
        outcome = ops.run_op(self.workload, self.scale, self.workdir, rng,
                             around=tracer.around)
        workers = tracer.worker_spans()
        shutil.rmtree(tracer.flush_dir)
        outcome["layers"] = spans.summarize(tracer.spans, workers)
        check_trace(outcome["layers"], workers, outcome["wall"])
        outcome["spans"] = {"op": tracer.spans, "workers": workers}
        render_ms = 0.0
        if tracer.context is not None:
            # Every experiment again on the op's now-warm context: what
            # is left is rendering.
            from repro.reports.experiments import EXPERIMENT_IDS, run_experiment

            started = time.perf_counter()
            for exp_id in EXPERIMENT_IDS:
                run_experiment(exp_id, tracer.context)
            render_ms = (time.perf_counter() - started) * 1e3
        outcome["render_ms"] = render_ms
        return outcome

    def op(self, kind: str, round_: int = 0) -> None:
        self.attempted += 1
        probe_before = self.probe.ms(self.probe_kind)
        error, outcome = in_child(self._op_body, kind, self.rng.getrandbits(32))
        probe_after = self.probe.ms(self.probe_kind)
        if outcome is not None:
            outcome["round"] = round_
            outcome["probe_ms"] = (probe_before + probe_after) / 2
            # A wrong answer still took its time: it is measured, and failed.
            self.done.append((kind, outcome))
            if outcome["failures"]:
                error = "%d pair failures" % outcome["failures"]
            elif outcome["digest"] != self.expected:
                error = "output digest %s, expected %s" % (
                    outcome["digest"], self.expected)
        if error is not None:
            self.failed += 1
            print("perfbench: %s op failed: %s" % (kind, error), file=sys.stderr)

    def parity(self) -> list:
        error, results = in_child(ops.check_parity, self.scale.sample_ops)
        if error is not None:
            self.attempted += 1
            self.failed += 1
            print("perfbench: parity check failed: %s" % error, file=sys.stderr)
            return []
        for result in results:
            self.attempted += 1
            if result["error"] is not None:
                self.failed += 1
                print("perfbench: engine parity on %s: %s"
                      % (result["pair"], result["error"]), file=sys.stderr)
        return results

    # -- set-up -----------------------------------------------------------

    def setup_sample(self) -> dict:
        probe_dir = tempfile.mkdtemp(prefix="setup-", dir=self.workdir)
        probe_before = self.probe.ms("compute")
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             self.workload, self.scale.name, probe_dir],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        marks = json.loads(proc.stdout.splitlines()[-1])
        marks["setup_s"] = marks.pop("ready") - started
        marks["probe_ms"] = (probe_before + self.probe.ms("compute")) / 2
        return marks

    # -- the run ----------------------------------------------------------

    def run(self) -> int:
        probes = [self.probe.ms(self.probe_kind, 5)]
        # Imports only: the ops must find nothing else in this process.
        # Importing before the set-up samples also leaves no module for
        # a sample to byte-compile.
        import repro.api  # noqa: F401
        import repro.reports.cli  # noqa: F401

        for module in spans.MODULES:
            __import__(module)
        setups = [self.setup_sample() for _ in range(self.scale.setup_samples)]
        if self.workload == "run_all_warm":
            # Fill the cache every timed op reads; checked like any op.
            self.op("fill")
        parity = self.parity()
        kinds = ("plain", "traced", "obs") if self.trace else ("plain",)
        deadline = time.perf_counter() + self.seconds
        count = 0
        while count < len(kinds) or time.perf_counter() < deadline:
            self.op(kinds[count % len(kinds)], count // len(kinds))
            count += 1
        probes.append(self.probe.ms(self.probe_kind, 5))

        if self.trace:
            metrics = self.per_layer(setups, parity, probes + [
                outcome["probe_ms"] for _, outcome in self.done])
            traced = self.outcomes("traced")
            if traced:
                print_attribution(traced)
                self.write_spans(traced)
        else:
            metrics = self.end_to_end(setups)
        units = PER_LAYER if self.trace else END_TO_END
        correct = self.failed == 0 and metrics is not None
        print("perfbench %s: %d ops attempted, %d failed; host.probe_ms "
              "start %.3f end %.3f" % (self.workload, self.attempted,
                                       self.failed, probes[0], probes[-1]))
        for name, value in (metrics or {}).items():
            print("  %-28s %14.4f %s" % (name, value, units[name]))
        if metrics and not self.trace:
            print("as measured, before scaling to host.probe_ms %.0f:" % REF_PROBE_MS)
            for name, value in self.end_to_end(setups, scaled=False).items():
                print("  %-28s %14.4f %s" % (name, value, units[name]))
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in (metrics or {}).items()
            },
        }))
        return 0 if correct else 1

    def outcomes(self, kind: str) -> list:
        return [outcome for k, outcome in self.done if k == kind]

    def end_to_end(self, setups, scaled: bool = True) -> dict:
        plain = self.outcomes("plain")
        if not plain:
            return None

        def at_reference(samples, times, neighbours=PROBE_NEIGHBOURS):
            """``times`` (one per sample) taken to the reference host."""
            if not scaled:
                return times
            probes = [sample["probe_ms"] for sample in samples]
            return [
                t * REF_PROBE_MS / statistics.median(
                    probes[max(0, i - neighbours):i + neighbours + 1])
                for i, t in enumerate(times)
            ]

        def per_op(percentile):
            return at_reference(plain, [quantile(o["pairs"], percentile) for o in plain])

        walls = at_reference(plain, [o["wall"] * 1e3 for o in plain])
        # Pair percentiles are taken within each op, then the median over
        # ops: a host stall that hits one op cannot move them.
        return {
            "setup_s": statistics.median(
                at_reference(setups, [s["setup_s"] for s in setups], neighbours=0)),
            "pairs_per_s": statistics.median(
                o["pair_count"] * 1e3 / wall for o, wall in zip(plain, walls)),
            "pair_ms_p50": statistics.median(per_op(50)) * 1e3,
            "pair_ms_p99": statistics.median(per_op(99)) * 1e3,
            "run_all_ms_p50": statistics.median(walls),
            "run_all_ms_p90": quantile(walls, 90),
            "peak_rss_mb": statistics.median(o["rss_mb"] for o in plain),
        }

    def per_layer(self, setups, parity, probes) -> dict:
        plain, traced, enabled = (self.outcomes(k) for k in ("plain", "traced", "obs"))
        if not (plain and traced and enabled):
            return None
        layers = [outcome["layers"] for outcome in traced]
        n_ops = len(layers)

        def calls(name):
            return sum(layer["calls"].get(name, 0) for layer in layers)

        def total(name, key="total"):
            return sum(layer[key].get(name, 0.0) for layer in layers)

        def per_call_ms(name, key="total"):
            count = calls(name)
            return total(name, key) / count * 1e3 if count else 0.0

        def per_op_ms(name):
            return total(name) / n_ops * 1e3

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        plain_walls = {o["round"]: o["wall"] for o in plain}

        def overhead_pct(kind_outcomes):
            # Against the untraced op of the same round, which ran moments
            # before: host drift between rounds cancels.
            ratios = [o["wall"] / plain_walls[o["round"]]
                      for o in kind_outcomes if o["round"] in plain_walls]
            return (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0

        runners = [runner for layer in layers for runner in layer["runners"]]
        simulating = [r for r in runners if r["misses"]]
        by_predictor = {
            p: [layer["exec_by_predictor"].get(p, (0, 0.0)) for layer in layers]
            for p in ops.PREDICTORS
        }
        first_pairs = [s for layer in layers for s in layer["first_pairs"]]
        every = plain + traced + enabled
        unattributed = sum(layer["attribution"].get(spans.OP_SPAN, 0.0) for layer in layers)

        return {
            "setup.import_s": statistics.median(s["import_s"] for s in setups),
            "setup.numpy_import_s": statistics.median(s["numpy_import_s"] for s in setups),
            "setup.suites_ms": statistics.median(s["suites_ms"] for s in setups),
            "workloads.generate_ms": per_call_ms("workloads.generate"),
            "workloads.solve_params_ms": per_call_ms("workloads.solve_params"),
            "workloads.ops_generated": sum(l["ops_generated"] for l in layers) / n_ops,
            "uarch.analyze_ms": per_call_ms("uarch.analyze"),
            "uarch.exec_ms": per_call_ms("uarch.exec"),
            **{
                "uarch.exec_ms." + p: ratio(sum(s for _, s in by_predictor[p]),
                                            sum(c for c, _ in by_predictor[p])) * 1e3
                for p in ops.PREDICTORS
            },
            "uarch.compose_ms": per_call_ms("uarch.run", "self"),
            "uarch.run_ms": per_call_ms("uarch.run"),
            "uarch.vector_ratio": ratio(calls("uarch.exec"), calls("uarch.run")),
            "uarch.sim_mops_per_s": ratio(
                sum(l["ops_run"] for l in layers), total("uarch.run")) / 1e6,
            "uarch.scalar_speedup": statistics.median(
                r["scalar_s"] / r["vector_s"] for r in parity) if parity else 0.0,
            "perf.session_ms": per_call_ms("perf.session"),
            "perf.self_ms": per_call_ms("perf.session", "self"),
            "perf.validate_ms": per_call_ms("perf.validate"),
            # A pooled runner's own time is mostly waiting for its workers:
            # its cost shows in runner.pool_overhead_s instead.
            "runner.self_ms": sum(
                r["self"] for r in runners if workers_used(r) == 1) / n_ops * 1e3,
            "runner.cache_key_ms": per_call_ms("runner.cache_key"),
            "runner.cache_load_ms": per_call_ms("runner.cache_load"),
            "runner.cache_store_ms": per_call_ms("runner.cache_store"),
            "runner.hit_ratio": ratio(sum(r["hits"] for r in runners),
                                      sum(r["hits"] + r["misses"] for r in runners)),
            "runner.pool_utilization": ratio(
                sum(r["simulated_s"] for r in simulating),
                sum(workers_used(r) * r["wall"] for r in simulating)),
            "runner.pool_overhead_s": ratio(
                sum(r["wall"] - r["pair_s"] / workers_used(r) for r in runners),
                len(runners)),
            "runner.worker_first_pair_ms": ratio(sum(first_pairs), len(first_pairs)) * 1e3,
            "runner.retries": statistics.mean(o["retries"] for o in every),
            "runner.failures": statistics.mean(o["failures"] for o in every),
            "obs.ledger_record_ms": per_call_ms("obs.ledger_record"),
            "obs.ledger_append_ms": per_call_ms("obs.ledger_append"),
            "obs.ledger_bytes_per_op": statistics.median(o["ledger_bytes"] for o in plain),
            "obs.fds_leaked": statistics.median(o["fds_leaked"] for o in plain),
            "obs.enabled_overhead_pct": overhead_pct(enabled),
            "core.characterize_ms": per_op_ms("core.characterize"),
            "core.means_ms": per_op_ms("core.means"),
            "core.features_ms": per_op_ms("core.features"),
            "core.subset_ms": per_op_ms("core.subset"),
            "stats.pca_ms": per_op_ms("stats.pca"),
            "stats.cluster_ms": per_op_ms("stats.cluster"),
            "reports.render_ms": statistics.mean(o["render_ms"] for o in traced),
            "host.probe_ms": statistics.median(probes),
            "trace.overhead_pct": overhead_pct(traced),
            "unattributed_ms": unattributed / n_ops * 1e3,
        }

    def write_spans(self, traced) -> None:
        """Every traced op's spans, one JSON line per op; within an op, a
        ``perf.session`` span (tagged with its pair) roots one pair."""
        path = os.path.join(WORK_ROOT, "spans-%s.jsonl" % self.workload)
        with open(path, "w") as handle:
            for op_id, outcome in enumerate(traced):
                handle.write(json.dumps(dict(outcome["spans"], id=op_id)) + "\n")


def workers_used(runner) -> int:
    """Processes that simulated a runner's misses: SuiteRunner pools only
    when it has more than one worker and more than one miss."""
    return min(runner["workers"], runner["misses"]) if runner["misses"] > 1 else 1


def check_trace(layers, workers, wall: float) -> None:
    """Raise unless one traced op's spans account for the op.

    No span's self time is negative.  The self times of the op's own
    process, ``unattributed`` included, sum to ``wall``, the time
    ``ops.run_op`` measured around the op on its own, to within
    ``ATTRIBUTION_SLACK_S`` plus ``ATTRIBUTION_SLACK_SHARE`` of it.  And
    when a pooled runner sent pairs to its workers, the workers recorded
    spans: they can only because they are forked and inherit the
    wrappers, which a spawning start method would silently undo.
    """
    if layers["min_self"] < -1e-9:
        raise RuntimeError("a span's children overlap it: self time %.3g s"
                           % layers["min_self"])
    attributed = sum(layers["attribution"].values())
    if abs(attributed - wall) > ATTRIBUTION_SLACK_S + ATTRIBUTION_SLACK_SHARE * wall:
        raise RuntimeError("self times sum to %.6f s, the op took %.6f s"
                           % (attributed, wall))
    sent = sum(r["misses"] for r in layers["runners"] if workers_used(r) > 1)
    if sent and not workers:
        raise RuntimeError("pooled runners simulated %d pairs, but no pool "
                           "worker recorded a span" % sent)


def print_attribution(traced) -> None:
    """Self time per span name in the op's own process, averaged over the
    traced ops; the root's self time is the unattributed rest."""
    attribution = {}
    for outcome in traced:
        for name, seconds in outcome["layers"]["attribution"].items():
            attribution[name] = attribution.get(name, 0.0) + seconds / len(traced)
    wall = statistics.mean(outcome["wall"] for outcome in traced)
    print("attribution of one traced op (self time, own process):")
    for name, seconds in sorted(attribution.items(), key=lambda kv: -kv[1]):
        label = "unattributed" if name == spans.OP_SPAN else name
        print("  %-28s %10.3f ms %6.1f%%" % (label, seconds * 1e3, 100.0 * seconds / wall))
    print("  %-28s %10.3f ms (op wall %.3f ms)"
          % ("sum", sum(attribution.values()) * 1e3, wall * 1e3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the inputs; outputs do not depend on it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time ops for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (few pairs, short traces)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: %s holds no src/repro to measure" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print("perfbench: imported repro from %s, not %s" % (repro.__file__, SRC),
              file=sys.stderr)
        return 2
    # Set-up probes import the same tree; no op may touch a user's cache
    # or ledger.
    os.environ["PYTHONPATH"] = SRC
    for variable in ("REPRO_CACHE_DIR", "REPRO_LEDGER"):
        os.environ.pop(variable, None)

    scale = ops.TINY if args.tiny else ops.FULL
    with open(DIGESTS) as handle:
        expected = json.load(handle).get(scale.name, {})
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT)
    try:
        with HostProbe() as probe:
            return Bench(args, scale, workdir, expected, probe).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
