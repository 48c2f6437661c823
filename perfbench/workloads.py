"""The benchmark's three workloads, each a set-up, a reference and a
measured phase driven through ``repro``'s public API.

``fig9a-warm``
    ``run_fig9`` with the kernel engine on a subset of the Fig. 9 grid,
    kernel artifacts built during set-up, no tree store: the experiment
    a user re-runs.  Synthesis and admission dominate it.
``cc-paper``
    ``run_cc`` at the paper's 20,000 scenarios per fault count on
    ``kernel@threads:2``, kernels built during set-up: scenario
    sampling, packing and simulation dominate it.
``service-cold``
    ``repro serve`` on an empty kernel cache and tree store, driven by a
    closed loop of two clients that each own disjoint generated
    applications: the only workload with store reads beside writes, the
    HTTP/JSON path and per-plan kernel builds.

Every workload measures *units*: one experiment call, or one stream of
requests on a fresh server.  ``wall_s`` is the median unit.  Outputs are checked against expected values computed outside
the timed phase; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracer import (
    PROBES,
    Span,
    Tracer,
    install,
    self_seconds,
    span_counts,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"

#: The experiments' own default seed; its expected outputs are stored
#: in ``expected/`` instead of recomputed.
DEFAULT_SEED = 2008

#: Spans that time the benchmark itself rather than a layer.
ROOT_SPAN = "phase"


class Abort(Exception):
    """The benchmark would time a different program than it names
    (kernel fallback, a compile in a warm phase, a dead server)."""


def subprocess_env(kernel_cache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
    )
    env["REPRO_KERNEL_CACHE"] = str(kernel_cache)
    return env


def canonical(value) -> object:
    """JSON-normal form of an experiment result (exact floats)."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    elif isinstance(value, list):
        value = [canonical(v) for v in value]
    return json.loads(json.dumps(value, sort_keys=True))


def peak_rss_mb(who: int) -> float:
    import resource

    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Measurement result
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Phase:
    """What one measured phase (traced or not) produced."""

    unit_walls: List[float]
    phase_wall: float
    attempted: int = 0
    failed: int = 0
    roots: List[str] = dataclasses.field(default_factory=list)
    spans: List[Span] = dataclasses.field(default_factory=list)
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    notes: List[str] = dataclasses.field(default_factory=list)
    requests: list = dataclasses.field(default_factory=list)

    @property
    def units(self) -> int:
        return len(self.unit_walls)

    @property
    def wall_per_unit(self) -> float:
        return self.phase_wall / self.units


def layer_breakdown(phase: Phase) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(self seconds, other metrics)`` per unit of a traced phase.

    Self seconds are keyed ``<span>_s`` and sum to the traced wall per
    unit; the other metrics are span counts (``<span>_n``), ratios and
    the phase's counter-based :attr:`Phase.layer` values.
    """
    seconds: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for root in phase.roots:
        for name, value in self_seconds(phase.spans, root).items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in span_counts(phase.spans, root).items():
            counts[name] = counts.get(name, 0) + value
    units = phase.units
    other = {f"{name}_n": value / units for name, value in counts.items()}
    tally = phase.counts
    other["scheduling.admit_ratio"] = ratio(
        tally.get("scheduling.admitted", 0), counts.get("scheduling.ftss", 0)
    )
    other["faults.scenarios_n"] = tally.get("faults.scenarios", 0) / units
    other["engine.fast_path_ratio"] = ratio(
        tally.get("engine.fast", 0), tally.get("engine.scenarios", 0)
    )
    other.update(phase.layer)
    return {f"{name}_s": value / units for name, value in seconds.items()}, other


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# In-process experiment workloads
# ----------------------------------------------------------------------
class ExperimentWorkload:
    """Repeated calls of one experiment in this process.

    Set-up runs in fresh Python processes (``run.py --warm-up DIR``):
    imports plus one call that builds every kernel artifact into an
    empty cache directory.  ``setup_repeats`` of them are timed and the
    median is ``setup_s``; the last directory is the warm cache of the
    measured phase, in which no kernel may be compiled.
    """

    name = ""
    setup_repeats = 3
    min_units = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected = None

    # Subclasses: the measured call, its batched reference, warm-up.
    def call(self, stats=None):
        raise NotImplementedError

    def reference_call(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        self.call()

    def setup(self) -> float:
        times = []
        for i in range(self.setup_repeats):
            cache = self.workdir / f"kernels-{i}"
            started = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", self.name, "--seed", str(self.seed),
                    "--warm-up", str(cache),
                ],
                env=subprocess_env(cache),
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=170,
            )
            times.append(time.perf_counter() - started)
            if proc.returncode != 0:
                raise Abort(
                    f"{self.name} set-up failed:\n{proc.stderr.strip()[-2000:]}"
                )
        os.environ["REPRO_KERNEL_CACHE"] = str(cache)
        return statistics.median(times)

    def reference(self) -> None:
        """Expected outputs: stored for the default seed, otherwise a
        ``batched`` run made in a fresh process (``run.py
        --reference``), so that this process runs only the timed
        workload and its peak RSS is that workload's."""
        if self.seed == DEFAULT_SEED:
            path = EXPECTED / f"{self.name}-{DEFAULT_SEED}.json"
            self.expected = json.loads(path.read_text())
            return
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", self.name, "--seed", str(self.seed),
                "--reference",
            ],
            env=subprocess_env(self.workdir / "kernels-reference"),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=170,
        )
        if proc.returncode != 0:
            raise Abort(
                f"{self.name} reference run failed:\n{proc.stderr.strip()[-2000:]}"
            )
        self.expected = json.loads(proc.stdout.splitlines()[-1])

    def measure(
        self,
        budget_s: float,
        tracer: Optional[Tracer],
        min_units: Optional[int] = None,
    ) -> Phase:
        """Call the experiment until ``budget_s`` would be overrun, at
        least ``min_units`` (default :attr:`min_units`) times; the kernel
        must neither fall back nor compile."""
        min_units = self.min_units if min_units is None else min_units
        from repro.runtime.engine.kernel import kernel_stats
        from repro.runtime.engine.threads import thread_stats

        kernel_before = kernel_stats().snapshot()
        threads_before = thread_stats().snapshot()
        stats = None
        if tracer is not None:
            from repro.quasistatic.synthesis import SynthesisStats

            stats = SynthesisStats()
        phase = Phase(unit_walls=[], phase_wall=0.0)
        started = time.perf_counter()
        while True:
            if tracer is None:
                t0 = time.perf_counter()
                result = self.call(stats)
                phase.unit_walls.append(time.perf_counter() - t0)
            else:
                with install(tracer, PROBES):
                    t0 = time.perf_counter()
                    with tracer.span(ROOT_SPAN) as root:
                        result = self.call(stats)
                    phase.unit_walls.append(time.perf_counter() - t0)
                phase.roots.append(root)
            phase.attempted += 1
            if canonical(result) != self.expected:
                phase.failed += 1
                phase.notes.append(
                    f"unit {phase.units}: output differs from the expected values"
                )
            elapsed = time.perf_counter() - started
            if (
                phase.units >= min_units
                and elapsed + statistics.median(phase.unit_walls) > budget_s
            ):
                break
        phase.phase_wall = sum(phase.unit_walls)

        kernel = kernel_stats()
        compiles = kernel.compiles - kernel_before.compiles
        hits = kernel.cache_hits - kernel_before.cache_hits
        fallbacks = kernel.n_fallbacks - kernel_before.n_fallbacks
        if fallbacks:
            raise Abort(
                f"{self.name}: the kernel fell back to NumPy "
                f"({kernel.summary()}); is a C compiler installed?"
            )
        if compiles:
            raise Abort(
                f"{self.name}: {compiles} kernel compile(s) in the warm "
                "timed phase; set-up did not warm the artifact cache"
            )
        if tracer is not None:
            threads = thread_stats()
            phase.spans = list(tracer.spans)
            phase.counts = dict(tracer.counts)
            phase.layer = {
                "kernel.cc_n": compiles / phase.units,
                "kernel.cache_hit_ratio": ratio(hits, hits + compiles),
                "kernel.fallbacks_n": fallbacks / phase.units,
                "threads.shards_n": (threads.shards - threads_before.shards)
                / phase.units,
                "threads.fallbacks_n": (
                    threads.n_fallbacks - threads_before.n_fallbacks
                )
                / phase.units,
                "quasistatic.trees_n": stats.trees_built / phase.units,
                "quasistatic.candidates_n": stats.candidates_evaluated
                / phase.units,
                "quasistatic.memo_hit_ratio": ratio(
                    stats.memo_hits, stats.candidates_evaluated
                ),
            }
        return phase


class Fig9aWarm(ExperimentWorkload):
    """``run_fig9`` on four of the nine default grid sizes, four
    applications each: the full grid's cold set-up (about 130 kernel
    builds of about 0.2 s, done three times) would not fit the run
    budget.  FTQS time per application has a long tail, so the call
    time varies from seed to seed; sixteen applications keep that
    spread well inside the bound, where ten (sizes 20 and 30, five
    each) gave 20% of the median between quartiles."""

    name = "fig9a-warm"
    sizes = (15, 20, 25, 30)
    apps_per_size = 4

    def config(self, execution: str):
        from repro.evaluation.experiments.fig9 import Fig9Config

        return Fig9Config(
            sizes=self.sizes,
            apps_per_size=self.apps_per_size,
            execution=execution,
            seed=self.seed,
        )

    def call(self, stats=None):
        from repro.evaluation.experiments.fig9 import run_fig9

        return run_fig9(self.config("kernel"), stats=stats)

    def reference_call(self):
        from repro.evaluation.experiments.fig9 import run_fig9

        return run_fig9(self.config("batched"))


class CCPaper(ExperimentWorkload):
    """``run_cc`` at paper scale on two kernel threads."""

    name = "cc-paper"
    n_scenarios = 20000
    #: A call takes about 10 s and a 2-CPU VM's speed drifts over tens
    #: of seconds: the median of three calls is steady, of two is not,
    #: so this workload measures about 30 s whatever the budget.
    min_units = 3

    def call(self, stats=None):
        from repro.evaluation.experiments.cc import CCConfig, run_cc

        return run_cc(
            CCConfig(
                n_scenarios=self.n_scenarios,
                execution="kernel@threads:2",
                seed=self.seed,
            ),
            stats=stats,
        )

    def reference_call(self):
        from repro.evaluation.experiments.cc import CCConfig, run_cc

        return run_cc(
            CCConfig(
                n_scenarios=self.n_scenarios, execution="batched", seed=self.seed
            )
        )

    def warm_up(self) -> None:
        # The three plans (and so the kernels) do not depend on the
        # scenario count.
        from repro.evaluation.experiments.cc import CCConfig, run_cc

        run_cc(CCConfig(n_scenarios=100, execution="kernel", seed=self.seed))


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` subprocess on an empty kernel cache."""

    ARGS = (
        "serve", "--port", "0", "--executor", "kernel",
        "--cache-backend", "memory", "--max-inflight", "2",
    )

    def __init__(self, kernel_cache: Path, spans_out: Optional[Path] = None):
        kernel_cache.mkdir(parents=True)
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", *self.ARGS]
        else:
            argv = [
                sys.executable, str(HERE / "serve_traced.py"),
                str(spans_out), *self.ARGS,
            ]
        self.proc = subprocess.Popen(
            argv,
            env=subprocess_env(kernel_cache),
            cwd=str(ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise Abort(f"server did not start: {line!r}")
            self.host, port = line.split("http://", 1)[1].strip().rsplit(":", 1)
            self.port = int(port)
            deadline = time.monotonic() + 60
            while self.get("/readyz")[0] != 200:
                if time.monotonic() > deadline:
                    raise Abort("server never became ready")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def metrics(self) -> dict:
        status, body = self.get("/metrics")
        if status != 200:
            raise Abort(f"/metrics answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (the service drains and exits), killed after 60 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


@dataclasses.dataclass
class Request:
    """One client-side request: endpoint, latency, and whether its
    status and body passed the checks."""

    kind: str
    latency: float
    ok: bool


class ServiceCold:
    """Two closed-loop clients against cold ``repro serve`` processes.

    One unit is a *stream*: a fresh server (empty tree store and kernel
    cache) answering the seed's ``n_apps`` generated applications
    (sizes cycling through ``sizes``, each admitted by FTSS so no
    request fails on an unschedulable input), client ``c`` taking
    applications ``c, c + 2, ...``.  Per application a client sends
    ``/v1/schedule`` ``repeats`` times — a store miss, then hits — each
    followed by ``/v1/evaluate`` of the returned tree; the first
    evaluate of a plan builds its kernel.  ``wall_s`` is the median
    stream wall-clock.  Every stream does the same work: one
    application's requests cost 0.7 to 3.5 s, so the median of the
    cycles that fitted into a time-bounded stream moved with how many,
    and which, fitted.
    """

    name = "service-cold"
    sizes = (10, 15, 20, 25, 30)
    #: Two of each size, split evenly between the two clients.
    n_apps = 10
    repeats = 3
    clients = 2
    scenarios = 200
    max_schedules = 8
    setup_repeats = 5
    min_units = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.bodies: List[bytes] = []
        self.server: Optional[Server] = None
        self._servers = 0
        #: Each application's first tree and evaluate answer: every
        #: later one, in any stream, must repeat it byte for byte.
        self._trees: Dict[int, bytes] = {}
        self._answers: Dict[int, bytes] = {}

    def _start_server(self, spans_out: Optional[Path] = None) -> Server:
        """A fresh server; with ``spans_out`` it runs under
        ``serve_traced.py``."""
        self.close()
        self._servers += 1
        self.server = Server(self.workdir / f"kernels-{self._servers}", spans_out)
        return self.server

    def _generate(self) -> List[bytes]:
        """The request bodies of the seed's applications."""
        import numpy as np

        from repro.io.json_io import application_to_dict
        from repro.scheduling.ftss import ftss
        from repro.workloads.suite import WorkloadSpec, generate_application

        rng = np.random.default_rng(self.seed)
        bodies: List[bytes] = []
        while len(bodies) < self.n_apps:
            size = self.sizes[len(bodies) % len(self.sizes)]
            app = generate_application(WorkloadSpec(n_processes=size), rng=rng)
            if ftss(app) is not None:
                bodies.append(json.dumps(application_to_dict(app)).encode("utf-8"))
        return bodies

    def setup(self) -> float:
        """Input generation plus a server start until ``/readyz``,
        ``setup_repeats`` times; ``setup_s`` is the median.  This
        process imports ``repro`` once, before the first repeat: a
        single in-process import is what a host under memory pressure
        slows most (cold page cache), and a median cannot smooth it.
        Each server still imports everything in its fresh process."""
        import numpy  # noqa: F401

        import repro.io.json_io  # noqa: F401
        import repro.scheduling.ftss  # noqa: F401
        import repro.workloads.suite  # noqa: F401

        times = []
        for i in range(self.setup_repeats):
            started = time.perf_counter()
            bodies = self._generate()
            self._start_server()
            times.append(time.perf_counter() - started)
            self.close()
            if i == 0:
                self.bodies = bodies
            elif bodies != self.bodies:
                raise Abort("input generation is not deterministic")
        return statistics.median(times)

    def reference(self) -> None:
        """Expected outputs are self-referential: every tree and every
        evaluate answer must repeat the application's first one."""

    def _cycle(
        self, conn, index: int, tracer: Optional[Tracer]
    ) -> Tuple[List[Request], List[str]]:
        """One application's requests and the problems found in them."""
        app = self.bodies[index]
        schedule_body = b'{"application": %s, "max_schedules": %d}' % (
            app, self.max_schedules,
        )
        requests: List[Request] = []
        problems: List[str] = []

        def post(kind: str, body: bytes):
            request, headers, answer = self._post(conn, kind, body, tracer)
            requests.append(request)
            if not request.ok:
                problems.append(f"app {index}: /v1/{kind} answered {headers}")
            return request, headers, answer

        def fail(request: Request, problem: str) -> None:
            request.ok = False
            problems.append(f"app {index}: {problem}")

        for rep in range(self.repeats):
            request, headers, tree = post("schedule", schedule_body)
            if not request.ok:
                break
            store = headers.get("X-Repro-Store")
            if store != ("miss" if rep == 0 else "hit"):
                fail(request, f"store {store!r} on schedule request {rep + 1}")
            if tree != self._trees.setdefault(index, tree):
                fail(request, "tree differs from the first miss body")
            request, _, answer = post(
                "evaluate",
                b'{"application": %s, "tree": %s, "scenarios": %d, "seed": %d}'
                % (app, tree, self.scenarios, self.seed + index),
            )
            if not request.ok:
                break
            if answer != self._answers.setdefault(index, answer):
                fail(request, "evaluate answer differs from the first one")
        return requests, problems

    @staticmethod
    def _post(conn, kind: str, body: bytes, tracer: Optional[Tracer]):
        """POST ``/v1/<kind>`` → (request, headers or status, body)."""
        path = f"/v1/{kind}"
        with tracer.span("service.client") if tracer else nullcontext() as span_id:
            if span_id is not None:
                path += f"?trace_parent={span_id}"
            started = time.perf_counter()
            conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            latency = time.perf_counter() - started
        if response.status != 200:
            return Request(kind, latency, False), response.status, data
        return Request(kind, latency, True), dict(response.getheaders()), data

    def measure(
        self,
        budget_s: float,
        tracer: Optional[Tracer],
        min_units: Optional[int] = None,
    ) -> Phase:
        """Streams, each on a fresh server, until ``budget_s`` would be
        overrun, at least ``min_units`` (default :attr:`min_units`) of
        them.  Traced streams run their server under ``serve_traced.py``
        and take in its spans."""
        min_units = self.min_units if min_units is None else min_units
        phase = Phase(unit_walls=[], phase_wall=0.0)
        totals: Dict[str, float] = {}
        server_spans: List[Span] = []
        started = time.perf_counter()
        while True:
            spans_out = None
            if tracer is not None:
                spans_out = self.workdir / f"server-spans-{self._servers + 1}.json"
            server = self._start_server(spans_out)
            phase.unit_walls.append(self._stream(server, phase, tracer, totals))
            self.close()
            if spans_out is not None:
                server_spans.extend(self._server_trace(spans_out, phase.counts))
            elapsed = time.perf_counter() - started
            if (
                phase.units >= min_units
                and elapsed + statistics.median(phase.unit_walls) > budget_s
            ):
                break
        phase.phase_wall = sum(phase.unit_walls)
        phase.attempted = len(phase.requests)
        phase.failed = sum(1 for r in phase.requests if not r.ok)
        if tracer is not None:
            phase.spans = list(tracer.spans) + server_spans
            for key, value in tracer.counts.items():
                phase.counts[key] = phase.counts.get(key, 0) + value
        phase.layer = self._server_layers(totals, phase)
        return phase

    def _stream(
        self,
        server: Server,
        phase: Phase,
        tracer: Optional[Tracer],
        totals: Dict[str, float],
    ) -> float:
        """Both clients through all applications; the stream's wall."""
        before = server.metrics()
        lock = threading.Lock()
        errors: List[Exception] = []

        def client(c: int) -> None:
            conn = server.connection()
            try:
                for index in range(c, len(self.bodies), self.clients):
                    done, problems = self._cycle(conn, index, tracer)
                    with lock:
                        phase.requests.extend(done)
                        phase.notes.extend(problems)
            except Exception as exc:  # re-raised as Abort after join
                errors.append(exc)
            finally:
                conn.close()

        started = time.perf_counter()
        with tracer.span(ROOT_SPAN) if tracer else nullcontext() as root:
            target = tracer.carry(client) if tracer else client
            threads = [
                threading.Thread(target=target, args=(c,))
                for c in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = time.perf_counter() - started
        if errors:
            raise Abort(f"client failed: {errors[0]!r}")
        after = server.metrics()
        if after["kernel"]["fallbacks"]:
            raise Abort(
                f"service kernel fell back to NumPy: {after['kernel']['fallbacks']}"
            )
        if root is not None:
            phase.roots.append(root)
        for key, value in self._deltas(before, after).items():
            totals[key] = totals.get(key, 0) + value
        return wall

    @staticmethod
    def _server_trace(spans_file: Path, counts: Dict[str, float]) -> List[Span]:
        """The spans a traced server wrote on exit; its counters are
        added to ``counts``."""
        if not spans_file.exists():
            raise Abort("the traced server exited without writing its spans")
        data = json.loads(spans_file.read_text())
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        return [Span.from_list(row) for row in data["spans"]]

    @staticmethod
    def _deltas(before: dict, after: dict) -> Dict[str, float]:
        """What one stream added to the server's ``/metrics`` counters."""

        def delta(section, key):
            return (after.get(section) or {}).get(key, 0) - (
                before.get(section) or {}
            ).get(key, 0)

        def total(section, key):
            return sum(after[section][key].values()) - sum(
                before[section][key].values()
            )

        threads_after = after["execution"]["threads"]
        threads_before = before["execution"]["threads"]
        return {
            "server_s": sum(
                after["requests"].get(e, {}).get("seconds", 0.0)
                - before["requests"].get(e, {}).get("seconds", 0.0)
                for e in ("/v1/schedule", "/v1/evaluate")
            ),
            "shed": delta("queue", "rejected"),
            "compiles": delta("kernel", "compiles"),
            "kernel_hits": delta("kernel", "cache_hits"),
            "kernel_fallbacks": total("kernel", "fallbacks"),
            "shards": threads_after["shards"] - threads_before["shards"],
            "thread_fallbacks": sum(threads_after["fallbacks"].values())
            - sum(threads_before["fallbacks"].values()),
            "trees": delta("synthesis", "trees_built"),
            "candidates": delta("synthesis", "candidates_evaluated"),
            "memo_hits": delta("synthesis", "memo_hits"),
            "store_hits": delta("store", "hits"),
            "store_misses": delta("store", "misses"),
            "store_bytes": delta("store", "bytes_read")
            + delta("store", "bytes_written"),
        }

    @staticmethod
    def _server_layers(totals: Dict[str, float], phase: Phase) -> Dict[str, float]:
        units = phase.units
        requests = phase.requests
        client_s = sum(r.latency for r in requests)
        compiles = totals["compiles"]
        hits = totals["kernel_hits"]
        store_hits = totals["store_hits"]
        return {
            "service.server_s": totals["server_s"] / units,
            "service.overhead_ms": 1e3
            * ratio(client_s - totals["server_s"], len(requests)),
            "service.shed_n": totals["shed"] / units,
            "kernel.cc_n": compiles / units,
            "kernel.cache_hit_ratio": ratio(hits, hits + compiles),
            "kernel.fallbacks_n": totals["kernel_fallbacks"] / units,
            "threads.shards_n": totals["shards"] / units,
            "threads.fallbacks_n": totals["thread_fallbacks"] / units,
            "quasistatic.trees_n": totals["trees"] / units,
            "quasistatic.candidates_n": totals["candidates"] / units,
            "quasistatic.memo_hit_ratio": ratio(
                totals["memo_hits"], totals["candidates"]
            ),
            "store.hit_ratio": ratio(
                store_hits, store_hits + totals["store_misses"]
            ),
            "store.bytes": totals["store_bytes"] / units,
        }

    @staticmethod
    def latency_summary(phase: Phase) -> Dict[str, float]:
        """Client-side latency percentiles and request throughput of an
        untraced phase (reported, not gated: no other workload has
        them)."""
        out: Dict[str, float] = {
            "req_per_s": len(phase.requests) / phase.phase_wall
        }
        for kind in ("schedule", "evaluate"):
            values = sorted(
                1e3 * r.latency for r in phase.requests if r.kind == kind
            )
            out[f"{kind}_n"] = len(values)
            if len(values) >= 2:
                q = statistics.quantiles(values, n=10, method="inclusive")
                out[f"{kind}_p50_ms"] = statistics.median(values)
                out[f"{kind}_p90_ms"] = q[8]
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS: Dict[str, Callable] = {
    Fig9aWarm.name: Fig9aWarm,
    CCPaper.name: CCPaper,
    ServiceCold.name: ServiceCold,
}
