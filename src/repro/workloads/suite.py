"""Benchmark-suite registry objects.

A :class:`BenchmarkSuite` owns a set of :class:`Benchmark` applications,
each of which exposes one :class:`~repro.workloads.profile.WorkloadProfile`
per (input size, input index) pair — the paper's "application-input pairs".
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..errors import UnknownBenchmarkError, WorkloadError
from .profile import InputSize, MiniSuite, WorkloadProfile


@dataclass(frozen=True)
class AppInput:
    """One application-input pair: a benchmark plus a concrete profile."""

    benchmark: "Benchmark"
    profile: WorkloadProfile

    @property
    def pair_name(self) -> str:
        return self.profile.pair_name

    @property
    def short_name(self) -> str:
        return self.profile.short_name


class Benchmark:
    """One SPEC application with its per-size input profiles."""

    def __init__(
        self,
        name: str,
        suite: MiniSuite,
        language: str,
        profiles: Dict[InputSize, Tuple[WorkloadProfile, ...]],
        description: str = "",
    ):
        if not profiles:
            raise WorkloadError("%s: benchmark needs at least one profile" % name)
        for size, group in profiles.items():
            for profile in group:
                if profile.benchmark != name:
                    raise WorkloadError(
                        "profile %s registered under benchmark %s"
                        % (profile.pair_name, name)
                    )
                if profile.input_size != size:
                    raise WorkloadError(
                        "profile %s filed under wrong size %s"
                        % (profile.pair_name, size)
                    )
        self.name = name
        self.suite = suite
        self.language = language
        self.description = description
        self._profiles = {size: tuple(group) for size, group in profiles.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Benchmark(%r, %s)" % (self.name, self.suite.value)

    @property
    def number(self) -> int:
        """Numeric SPEC id (505 for 505.mcf_r)."""
        return int(self.name.split(".", 1)[0])

    def inputs(self, size: InputSize) -> Tuple[WorkloadProfile, ...]:
        """All input profiles for one size (empty tuple if size missing)."""
        return self._profiles.get(size, ())

    def input_count(self, size: InputSize) -> int:
        return len(self.inputs(size))

    def profile(self, size: InputSize, index: int = 0) -> WorkloadProfile:
        """One concrete profile; raises if the size or index is missing."""
        group = self.inputs(size)
        if not group:
            raise UnknownBenchmarkError("%s/%s" % (self.name, size.value))
        if index < 0:
            # Negative indices would silently wrap around to the last
            # input; treat them as unknown like any other bad index.
            raise UnknownBenchmarkError(
                "%s input #%d at size %s (indices start at 0)"
                % (self.name, index, size.value)
            )
        try:
            return group[index]
        except IndexError:
            raise UnknownBenchmarkError(
                "%s input #%d at size %s (has %d)"
                % (self.name, index, size.value, len(group))
            ) from None


class BenchmarkSuite:
    """A named collection of benchmarks (e.g. all of CPU2017)."""

    def __init__(self, name: str, benchmarks: Iterable[Benchmark]):
        self.name = name
        self._benchmarks: Dict[str, Benchmark] = {}
        for benchmark in sorted(benchmarks, key=lambda b: b.number):
            if benchmark.name in self._benchmarks:
                raise WorkloadError("duplicate benchmark %s" % benchmark.name)
            self._benchmarks[benchmark.name] = benchmark
        # Lazily built pair-name -> AppInput index (the registry is
        # immutable after construction, so building it once is safe).
        self._pair_index: Optional[Dict[str, AppInput]] = None

    def __len__(self) -> int:
        return len(self._benchmarks)

    def __iter__(self) -> Iterator[Benchmark]:
        return iter(self._benchmarks.values())

    def __contains__(self, name: str) -> bool:
        return name in self._benchmarks

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._benchmarks)

    def get(self, name: str) -> Benchmark:
        """Look up a benchmark by exact or suffix name.

        Accepts either the full SPEC name (``"505.mcf_r"``) or the bare
        application name (``"mcf_r"``).
        """
        if name in self._benchmarks:
            return self._benchmarks[name]
        suffix_hits = [b for b in self._benchmarks.values()
                       if b.name.split(".", 1)[-1] == name]
        if len(suffix_hits) == 1:
            return suffix_hits[0]
        if len(suffix_hits) > 1:
            raise UnknownBenchmarkError(
                name,
                tuple(b.name for b in suffix_hits),
                reason="ambiguous benchmark name",
            )
        candidates = get_close_matches(name, self._benchmarks, n=3, cutoff=0.5)
        raise UnknownBenchmarkError(name, tuple(candidates))

    def mini_suite(self, suite: MiniSuite) -> "BenchmarkSuite":
        """The sub-registry holding one mini-suite's applications."""
        subset = [b for b in self if b.suite == suite]
        return BenchmarkSuite("%s/%s" % (self.name, suite.value), subset)

    def pairs(
        self,
        size: Optional[InputSize] = None,
        suite: Optional[MiniSuite] = None,
        include_errors: bool = True,
    ) -> Tuple[AppInput, ...]:
        """All application-input pairs, optionally filtered.

        Args:
            size: Restrict to one input size (None = all sizes).
            suite: Restrict to one mini-suite (None = all).
            include_errors: If False, drop pairs whose perf collection
                failed in the paper (``collection_error`` profiles).
        """
        result = []
        sizes = (size,) if size is not None else tuple(InputSize)
        for benchmark in self:
            if suite is not None and benchmark.suite != suite:
                continue
            for one_size in sizes:
                for profile in benchmark.inputs(one_size):
                    if not include_errors and profile.collection_error:
                        continue
                    result.append(AppInput(benchmark, profile))
        return tuple(result)

    def pair_count(self, size: Optional[InputSize] = None) -> int:
        return len(self.pairs(size=size))

    def find_pair(self, pair_name: str) -> AppInput:
        """Look up one pair by its full pair name, e.g.
        ``"603.bwaves_s-in1/ref"`` (the size suffix may be omitted for
        ref)."""
        if self._pair_index is None:
            self._pair_index = {p.pair_name: p for p in self.pairs()}
        wanted = pair_name if "/" in pair_name else pair_name + "/ref"
        try:
            return self._pair_index[wanted]
        except KeyError:
            candidates = get_close_matches(
                wanted, self._pair_index, n=3, cutoff=0.4
            )
            raise UnknownBenchmarkError(pair_name, tuple(candidates)) from None
