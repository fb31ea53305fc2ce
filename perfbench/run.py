#!/usr/bin/env python3
"""pvdstego benchmark: CLI wall times end to end, library layers when traced.

    python3 perfbench/run.py --workload full-p5 --seed 0 --seconds 55 --trace 0

A run builds its inputs from --seed, runs the workload's commands through
``pvdstego.cli.main`` in this process, checks every output, and prints one
JSON result as the last line of stdout: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names and
units come from BENCHMARK.json at the repository root.

Workloads (covers: ``synthetic_cover(kind, 256, 256, seed)`` for gradient,
noise and checkerboard; payloads: ``random.Random(seed).randbytes(n)``):

* ``full-p5``: binary PGM covers, payload at 100% of net capacity.
* ``short-p2``: ascii PGM covers, 256-byte payload.  Stego images are
  re-encoded to ascii PGM, untimed, before extraction.

A round runs on one cover: ``capacity``, ``embed``, ``extract``,
``embed --method pvd`` and ``extract --method pvd``.  Rounds cycle through
the covers while the next one is predicted to fit in --seconds, and every
cover gets at least one.  A command's time is the mean over the covers of
each cover's median; the first round on each cover is warm-up, and its
times are dropped whenever the cover has later ones.

With ``--trace 1`` each command is also replayed as the public library
calls its ``cmd_*`` function makes, one span per call (name, start, end,
parent, operation id).  The traced run also runs ``selftest`` once (the
exhaustive oracle, one job as the CLI defaults to) at the start of its
window, and round-trips each cover through ascii PGM, so that every
workload reports every layer.  The selftest stays out of untraced runs:
one sample of about 15 s would take a third of the window and leave too
few samples of the image commands to be steady.  Spans stay in memory and are
written to ``perfbench/out/`` at the end, next to a report with sample
counts, tail percentiles, counts and the environment.  The traced report
compares its command times with the untraced report of the same workload,
if there is one, as the tracing overhead.

Outputs are checked against SHA-256 digests recorded from the seed code
(``digests.json``, written by ``record_digests.py``) and against
invariants that hold for any seed: capacity figures, exact round trips
where no loss is documented, and at most one wrong byte per lossy corner.

Exit status: 0 once a result is printed (``correct`` says whether the
outputs were right), 2 if the run could not start.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# 256 rather than 512 pixels a side: on a few shared cores a command's time
# varies by +-20% from one call to the next, and a 512-pixel ascii cover
# (1.2-1.7 s a command) left two or three samples per cover in a run, too few
# for a steady median
SIZE = 256
KINDS = ("gradient", "noise", "checkerboard")
# about 2% of the net capacity of the smallest cover (gradient, 12284 bytes)
SHORT_PAYLOAD = 256
SETUP_SAMPLES = 15
# the selftest's figures for the default range table (see the package README)
ORACLE_CASES = 4_035_968
ORACLE_LOSSY_CORNERS = 128
EXIT_OK, EXIT_IO = 0, 3
SETUP_CODE = "import pvdstego; pvdstego.build_range_table()"
COMMANDS = ("capacity_s", "embed_s", "extract_s", "pvd_embed_s", "pvd_extract_s")


@dataclass(frozen=True)
class Workload:
    variant: str  # PGM variant of the covers and of the stego images extracted from
    full: bool  # payload at full net capacity, else SHORT_PAYLOAD bytes


WORKLOADS = {
    "full-p5": Workload("binary", True),
    "short-p2": Workload("ascii", False),
}


class StartError(Exception):
    """The run cannot start; no result is printed."""


def import_package() -> types.SimpleNamespace:
    """Import pvdstego from this checkout's src/, never from anywhere else."""
    init = SRC / "pvdstego" / "__init__.py"
    if not init.is_file():
        raise StartError(f"no pvdstego sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pvdstego
    from pvdstego import apvd, cli, codec, imagery, metrics, oracle, pvd

    if Path(pvdstego.__file__).resolve() != init.resolve():
        raise StartError(f"pvdstego was imported from {pvdstego.__file__}, not {init}")
    return types.SimpleNamespace(
        apvd=apvd, cli=cli, codec=codec, imagery=imagery, metrics=metrics, oracle=oracle, pvd=pvd)


# --- inputs and digests ------------------------------------------------------


@dataclass
class Input:
    kind: str
    image: object  # pvdstego.GrayImage
    raw_bits: int
    net_bytes: int
    payload: bytes


def make_inputs(workload: str, seed: int, size: int = SIZE) -> list[Input]:
    """The corpus of one workload; the same seed gives the same inputs."""
    lib = import_package()
    table = lib.codec.build_range_table()
    inputs = []
    for kind in KINDS:
        image = lib.imagery.synthetic_cover(kind, size, size, seed)
        raw, net = lib.metrics.capacity(image, table)
        # capped so that the payload stays short on the small covers of tests
        n = net if WORKLOADS[workload].full else min(SHORT_PAYLOAD, net // 32)
        inputs.append(Input(kind, image, raw, net, random.Random(seed).randbytes(n)))
    return inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def raster_digest(raster) -> str:
    """Digest of a wide pvd raster, the same whatever sequence type holds it."""
    return sha256(",".join(str(int(v)) for v in raster).encode("ascii"))


def recorded_digests(workload: str, seed: int, size: int) -> dict:
    """{kind: {method: {name: value}}} recorded from the seed code, or {}."""
    if not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text())
    if table["size"] != size:
        return {}
    return table["digests"].get(workload, {}).get(str(seed), {})


def error_bytes(got: bytes, want: bytes) -> int:
    """Bytes that differ, plus the difference in length."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


# --- tracing -----------------------------------------------------------------


class Tracer:
    """Spans in memory: id, parent, operation id, name, role, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, role: str = "op", **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else len(self.spans),
            "name": name,
            "role": role,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["start"] = start - self._t0
            rec["end"] = end - self._t0

    def durations(self, name: str, role: str | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and role in (None, s["role"])]


# --- one run -----------------------------------------------------------------


@dataclass
class Stats:
    """What one run saw: command times, counts and failed operations."""

    cli: dict = field(default_factory=dict)  # metric -> kind -> [seconds]
    counts: dict = field(default_factory=dict)  # kind -> {name: value}, from the last round
    digests: dict = field(default_factory=dict)  # kind -> method -> {name: value}
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests_checked: int = 0
    rounds: int = 0


class Run:
    """The operations of one workload, each timed, checked and (traced) replayed."""

    def __init__(self, lib, workload: str, inputs: list[Input], work: Path, trace: bool, expected: dict):
        self.lib = lib
        self.variant = WORKLOADS[workload].variant
        self.inputs = inputs
        self.work = work
        self.tracer = Tracer() if trace else None
        self.expected = expected
        self.stats = Stats()
        for inp in inputs:
            (work / f"{inp.kind}.pgm").write_bytes(lib.imagery.save_pgm(inp.image, self.variant))
            (work / f"{inp.kind}.bin").write_bytes(inp.payload)

    # -- plumbing --

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def call(self, name, fn, *args, role="replay", **attrs):
        """One library call; a span of its own when tracing."""
        with self.span(name, role=role, **attrs):
            return fn(*args)

    def load(self, data: bytes, role="replay"):
        name = "imagery.load_pgm_p2" if data[:2] == b"P2" else "imagery.load_pgm_p5"
        return self.call(name, self.lib.imagery.load_pgm, data, role=role, bytes=len(data))

    def cli(self, metric: str, kind: str, argv: list[str]):
        """Time one CLI command; returns (exit code or exception text, stdout)."""
        out = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with self.span("cli.main", role="cli"):
                start = time.perf_counter()
                try:
                    rc = self.lib.cli.main(argv)
                except Exception as exc:  # a traceback is a failed operation, not a crash
                    rc = f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
        self.stats.cli.setdefault(metric, {}).setdefault(kind, []).append(elapsed)
        return rc, out.getvalue()

    @contextlib.contextmanager
    def operation(self, metric: str, kind: str):
        """One checked operation; yields the list that collects its problems."""
        problems: list[str] = []
        self.stats.attempted += 1
        with self.span("op", metric=metric, kind=kind):
            try:
                yield problems
            except (OSError, ValueError, KeyError) as exc:  # missing or unreadable output
                problems.append(f"output unreadable: {exc!r}")
        if problems:
            self.stats.failed += 1
            self.stats.problems.extend(f"{metric}/{kind}: {p}" for p in problems)

    def check_digest(self, problems, kind, method, name, value):
        self.stats.digests.setdefault(kind, {}).setdefault(method, {})[name] = value
        want = self.expected.get(kind, {}).get(method, {}).get(name)
        if want is not None:
            self.stats.digests_checked += 1
            if want != value:
                problems.append(f"{method} {name} is {value!r:.14}, recorded {want!r:.14}")

    def count(self, kind, **values):
        self.stats.counts.setdefault(kind, {}).update(values)

    # -- the workload --

    def selftest(self):
        with self.operation("selftest_s", "default") as problems:
            rc, out = self.cli("selftest_s", "default", ["selftest"])
            for line in ("selftest passed", f"cases checked: {ORACLE_CASES}",
                         f"lossy corner blocks: {ORACLE_LOSSY_CORNERS}"):
                if rc != EXIT_OK or line not in out:
                    problems.append(f"exit {rc}, output lacks {line!r}")
            if self.tracer:
                table = self.call("codec.build_range_table", self.lib.codec.build_range_table)
                result = self.call("oracle.run", self.lib.oracle.run, table)
                self.count("oracle", **{
                    "oracle.cases": result.total_cases,
                    "oracle.lossy_corners": result.lossy_corner_count,
                    "oracle.failures": len(result.failures),
                })
                if result.failures or result.total_cases != ORACLE_CASES:
                    problems.append(f"oracle: {result.total_cases} cases, {result.failures[:1]}")

    def round(self, inp):
        self.capacity(inp)
        self.embed(inp, "apvd")
        self.extract(inp, "apvd")
        self.embed(inp, "pvd")
        self.extract(inp, "pvd")
        self.stats.rounds += 1

    def capacity(self, inp):
        cover = self.work / f"{inp.kind}.pgm"
        with self.operation("capacity_s", inp.kind) as problems:
            rc, out = self.cli("capacity_s", inp.kind, ["capacity", "--cover", str(cover)])
            if rc != EXIT_OK or f"raw_bits={inp.raw_bits} net_bytes={inp.net_bytes}" not in out:
                problems.append(f"exit {rc}, output {out.strip()!r}")
            if self.tracer:
                table = self.call("codec.build_range_table", self.lib.codec.build_range_table)
                image = self.load(cover.read_bytes())
                if self.call("metrics.capacity", self.lib.metrics.capacity, image, table) != (
                        inp.raw_bits, inp.net_bytes):
                    problems.append("replayed capacity differs")

    def embed(self, inp, method):
        metric = "embed_s" if method == "apvd" else "pvd_embed_s"
        cover, payload = self.work / f"{inp.kind}.pgm", self.work / f"{inp.kind}.bin"
        stego = self.work / f"{inp.kind}.{method}.pgm"
        with self.operation(metric, inp.kind) as problems:
            rc, _ = self.cli(metric, inp.kind, [
                "embed", "--method", method, "--cover", str(cover),
                "--payload", str(payload), "--out", str(stego)])
            if rc != EXIT_OK:
                problems.append(f"exit {rc}")
                return
            written = stego.read_bytes()
            report = json.loads(Path(f"{stego}.json").read_text())
            self.check_digest(problems, inp.kind, method, "stego", sha256(written))
            if method == "apvd":
                self.count(inp.kind, psnr_db=report["psnr_db"], lossy_corners=report["lossy_corner_count"])
            else:
                self.count(inp.kind, pvd_violations=report["violations"])
            if self.tracer and self.replay_embed(inp, method, cover.read_bytes(), problems) != written:
                problems.append("replayed stego differs from the CLI's")
            if self.variant == "ascii":
                self.reencode(stego, written)

    def replay_embed(self, inp, method, data, problems) -> bytes:
        codec, imagery, metrics, pvd = self.lib.codec, self.lib.imagery, self.lib.metrics, self.lib.pvd
        table = self.call("codec.build_range_table", codec.build_range_table)
        image = self.load(data)
        if method == "apvd":
            report = self.call("apvd.embed_image", self.lib.apvd.apvd_embed_image, image, inp.payload, table)
            stego = self.call("imagery.save_pgm_p5", imagery.save_pgm, report.stego)
            # siblings on identical inputs, for the derived apvd.walk_s
            self.call("metrics.capacity", metrics.capacity, image, table, role="sibling")
            self.call("codec.frame_payload", codec.frame_payload, inp.payload, role="sibling")
            self.call("metrics.mse_psnr", metrics.mse_psnr, image.pixels, report.stego.pixels, role="sibling")
            self.count(inp.kind, **{
                "apvd.blocks_used": report.blocks_used,
                "apvd.bits_embedded": report.bits_embedded,
                "apvd.lossy_corners": report.lossy_corner_count,
                **{f"apvd.branch.{b}": n for b, n in report.branch_counts.items()},
            })
            return stego
        framed = self.call("codec.frame_payload", codec.frame_payload, inp.payload)
        result = self.call("pvd.embed_image", pvd.pvd_embed_image, image, framed, table)
        clamped = self.call("pvd.clamp_raster", pvd.clamp_raster, result.stego)
        stego = self.call("imagery.save_pgm_p5", imagery.save_pgm,
                          imagery.GrayImage(image.width, image.height, clamped))
        self.call("metrics.mse_psnr", metrics.mse_psnr, image.pixels, result.stego)
        # sibling: the same sum as the capacity pass pvd_embed_image runs first
        self.call("metrics.capacity", metrics.capacity, image, table, role="sibling")
        self.check_digest(problems, inp.kind, "pvd", "raster", raster_digest(result.stego))
        self.count(inp.kind, **{"pvd.violations": result.violations})
        return stego

    def reencode(self, stego: Path, data: bytes):
        """Store a stego image as ascii PGM for extraction; not part of any command."""
        with self.span("prep.reencode", role="prep"):
            image = self.load(data, role="prep")
            stego.write_bytes(self.call("imagery.save_pgm_p2", self.lib.imagery.save_pgm,
                                        image, "ascii", role="prep"))

    def extract(self, inp, method):
        metric = "extract_s" if method == "apvd" else "pvd_extract_s"
        stego = self.work / f"{inp.kind}.{method}.pgm"
        out = self.work / f"{inp.kind}.{method}.out"
        out.unlink(missing_ok=True)
        with self.operation(metric, inp.kind) as problems:
            rc, _ = self.cli(metric, inp.kind, [
                "extract", "--method", method, "--cover", str(stego), "--out", str(out)])
            recovered = out.read_bytes() if rc == EXIT_OK else None
            self.check_outcome(problems, inp, method, rc, recovered)
            if self.tracer and self.replay_extract(method, stego.read_bytes()) != recovered:
                problems.append("replayed extraction differs from the CLI's")

    def check_outcome(self, problems, inp, method, rc, recovered):
        counts = self.stats.counts.get(inp.kind, {})
        recorded_exit = self.expected.get(inp.kind, {}).get(method, {}).get("exit")
        self.stats.digests.setdefault(inp.kind, {}).setdefault(method, {})["exit"] = rc
        if recorded_exit is not None and rc != recorded_exit:
            problems.append(f"exit {rc}, recorded {recorded_exit}")
        if method == "apvd":
            allowed = (EXIT_OK,)
        else:
            # clamping is documented as corrupting: a clamped stego may extract
            # wrong bytes or be rejected as malformed, an unclamped one neither
            clamped = counts.get("pvd_violations", 0) > 0
            allowed = (EXIT_OK, EXIT_IO) if clamped else (EXIT_OK,)
        if rc not in allowed:
            problems.append(f"exit {rc}")
            return
        wrong = len(inp.payload) if recovered is None else error_bytes(recovered, inp.payload)
        if method == "apvd":
            # each lossy corner flips one bit, so at most one wrong byte per corner
            corners = counts.get("lossy_corners", 0)
            self.count(inp.kind, **{"apvd.payload_error_bytes": wrong})
            if wrong > corners:
                problems.append(f"{wrong} wrong bytes for {corners} lossy corners")
        else:
            self.count(inp.kind, **{"pvd.payload_error_bytes": wrong, "pvd.rejected": int(recovered is None)})
            if wrong and not clamped:
                problems.append(f"{wrong} wrong bytes without clamping")
        if recovered is not None:
            self.check_digest(problems, inp.kind, method, "recovered", sha256(recovered))

    def replay_extract(self, method, data):
        codec, pvd = self.lib.codec, self.lib.pvd
        table = self.call("codec.build_range_table", codec.build_range_table)
        image = self.load(data)
        try:
            if method == "apvd":
                return self.call("apvd.extract_image", self.lib.apvd.apvd_extract_image, image, table)
            bits = self.call("pvd.extract_image", pvd.pvd_extract_image, image.pixels, table)
            return self.call("codec.deframe_payload", codec.deframe_payload, bits)
        except codec.PayloadError:
            return None

    def p2_roundtrip(self):
        """The ascii codec on each cover, so that every workload's trace reports it."""
        for inp in self.inputs:
            with self.span("probe.p2_roundtrip", kind=inp.kind):
                data = self.call("imagery.save_pgm_p2", self.lib.imagery.save_pgm, inp.image, "ascii")
                self.load(data)


def setup_seconds(samples: int) -> list[float]:
    """Wall times of fresh interpreters that import pvdstego and build the table."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


# --- metrics -----------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Count, minimum, median and the highest percentile with ten samples beyond it."""
    n = len(samples)
    out = {"n": n, "min": min(samples), "median": statistics.median(samples)}
    if n > 10:
        out[f"p{100 * (n - 10) / n:.1f}"] = sorted(samples)[n - 11]
    return out


def timed(samples: list[float]) -> list[float]:
    """A cover's times without its first, warm-up, sample unless it is the only one."""
    return samples[1:] or samples


def command_times(stats: Stats) -> dict:
    """Per command, the mean over the covers of each cover's median time."""
    return {name: statistics.fmean(statistics.median(timed(v)) for v in stats.cli[name].values())
            for name in COMMANDS}


def end_to_end(stats: Stats, setup: list[float], size: int) -> dict:
    values = command_times(stats)
    values.update(
        setup_s=statistics.median(setup),
        roundtrip_mpix_s=size * size / (values["embed_s"] + values["extract_s"]) / 1e6,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        psnr_db=statistics.fmean(stats.counts[k]["psnr_db"] for k in KINDS),
    )
    return values


def per_layer(stats: Stats, tracer: Tracer, blocks_scanned: int) -> dict:
    med, d = statistics.median, tracer.durations
    counts = dict(stats.counts["oracle"])
    for kind in KINDS:
        for name, v in stats.counts[kind].items():
            if "." in name:
                counts[name] = counts.get(name, 0) + v

    by_op: dict[int, list[dict]] = {}
    for s in tracer.spans:
        by_op.setdefault(s["op"], []).append(s)
    walks, overhead = [], {"embed_s": [], "extract_s": []}
    for spans in by_op.values():
        root, took = spans[0], {}
        for s in spans:
            took.setdefault((s["role"], s["name"]), s["end"] - s["start"])
        # derived: each embed minus the sibling-timed capacity, framing and PSNR
        # calls on the same inputs in the same operation
        if ("replay", "apvd.embed_image") in took:
            walks.append(took["replay", "apvd.embed_image"] - sum(
                took["sibling", n] for n in ("metrics.capacity", "codec.frame_payload", "metrics.mse_psnr")))
        if root.get("metric") in overhead:
            replay = sum(s["end"] - s["start"] for s in spans if s["role"] == "replay")
            overhead[root["metric"]].append(took["cli", "cli.main"] - replay)

    used = counts["apvd.blocks_used"]
    p2_loads = [s for s in tracer.spans if s["name"] == "imagery.load_pgm_p2"]
    embeds, extracts, oracle_runs = d("apvd.embed_image"), d("apvd.extract_image"), d("oracle.run")
    return {
        "imagery.load_pgm_p2_s": med(d("imagery.load_pgm_p2")),
        "imagery.p2_parse_mb_s": med(s["bytes"] / (s["end"] - s["start"]) / 1e6 for s in p2_loads),
        "imagery.load_pgm_p5_s": med(d("imagery.load_pgm_p5")),
        "imagery.save_pgm_p5_s": med(d("imagery.save_pgm_p5")),
        "imagery.save_pgm_p2_s": med(d("imagery.save_pgm_p2")),
        "codec.build_range_table_s": med(d("codec.build_range_table")),
        "codec.frame_payload_s": med(d("codec.frame_payload")),
        "codec.deframe_payload_s": med(d("codec.deframe_payload")),
        "metrics.capacity_s": med(d("metrics.capacity", "replay")),
        "metrics.mse_psnr_s": med(d("metrics.mse_psnr")),
        "pvd.raw_bit_capacity_s": med(d("metrics.capacity", "sibling")),
        "pvd.embed_image_s": med(d("pvd.embed_image")),
        "pvd.clamp_raster_s": med(d("pvd.clamp_raster")),
        "pvd.extract_image_s": med(d("pvd.extract_image")),
        "apvd.embed_image_s": med(embeds),
        "apvd.walk_s": med(walks),
        "apvd.extract_image_s": med(extracts),
        "apvd.embed_blocks_per_s": used / len(KINDS) / med(embeds),
        "apvd.extract_blocks_per_s": used / len(KINDS) / med(extracts),
        "apvd.retry_ratio": (used - counts["apvd.branch.plain"]) / used,
        "apvd.blocks_used_ratio": used / blocks_scanned,
        "oracle.run_s": med(oracle_runs),
        "oracle.cases_per_s": counts["oracle.cases"] / med(oracle_runs),
        "cli.embed_overhead_s": med(overhead["embed_s"]),
        "cli.extract_overhead_s": med(overhead["extract_s"]),
        **counts,
    }


# --- the run and its report ----------------------------------------------------


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: int = SIZE, digests: dict | None = None, out_dir: Path = OUT) -> dict:
    """Run one workload and return its report; nothing is printed."""
    lib = import_package()
    inputs = make_inputs(workload, seed, size)
    expected = recorded_digests(workload, seed, size) if digests is None else digests
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        run = Run(lib, workload, inputs, work, trace, expected)
        setup = [] if trace else setup_seconds(SETUP_SAMPLES)
        start = time.perf_counter()
        if trace:
            run.selftest()
        # rounds rather than whole passes, so that the window is used to its end
        for i in itertools.count():
            began = time.perf_counter()
            run.round(inputs[i % len(inputs)])
            now = time.perf_counter()
            if i + 1 >= len(inputs) and now - start + (now - began) > seconds:
                break
        if trace:
            run.p2_roundtrip()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stats = run.stats
    try:
        if trace:
            blocks = sum(inp.image.width * inp.image.height // 2 for inp in inputs)
            values = per_layer(stats, run.tracer, blocks)
        else:
            values = end_to_end(stats, setup, size)
    except (KeyError, ZeroDivisionError, statistics.StatisticsError):
        if not stats.failed:
            raise
        values = {}  # failed operations left samples or counts missing
    apvd_errors = sum(stats.counts.get(k, {}).get("apvd.payload_error_bytes", 0) for k in KINDS)
    report = {
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "size": size,
        "seconds": seconds,
        "rounds": stats.rounds,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "ops_failed_ratio": stats.failed / stats.attempted,
        "payload_error_bytes": apvd_errors,
        "lossy_corners": sum(stats.counts.get(k, {}).get("lossy_corners", 0) for k in KINDS),
        "problems": stats.problems,
        "digests_recorded": bool(expected),
        "digests_checked": stats.digests_checked,
        "digests": stats.digests,
        "samples": {name: summary([t for ts in by_kind.values() for t in timed(ts)])
                    for name, by_kind in stats.cli.items()},
        "counts": stats.counts,
        "cli_seconds": stats.cli,
        "values": values,
    }
    if setup:
        report["samples"]["setup_s"] = summary(setup)
    name = f"{workload}-seed{seed}"
    if trace:
        report["tracing_overhead"] = tracing_overhead(
            stats, size, out_dir / f"{name}-trace0.json", out_dir, workload)
        with open(out_dir / f"{name}-spans.jsonl", "w") as f:
            for s in run.tracer.spans:
                f.write(json.dumps(s) + "\n")
    (out_dir / f"{name}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def tracing_overhead(stats: Stats, size: int, same_seed: Path, out_dir: Path, workload: str) -> dict | None:
    """Traced CLI times against an untraced report of the workload, as ratios minus one.

    The report of the same seed is preferred, else the newest; reports of
    another cover size are skipped.
    """
    newest = sorted(out_dir.glob(f"{workload}-seed*-trace0.json"), key=lambda p: p.stat().st_mtime, reverse=True)
    for untraced in [same_seed] * same_seed.is_file() + newest:
        base = json.loads(untraced.read_text())
        if base["size"] == size and base["values"]:
            break
    else:
        return None
    traced = command_times(stats)
    return {"against": untraced.name,
            **{n: traced[n] / base["values"][n] - 1 for n in COMMANDS if base["values"].get(n)}}


def result(report: dict, spec: dict) -> dict:
    """The last line: the metrics BENCHMARK.json lists for this kind of run."""
    listed = spec["per_layer" if report["trace"] else "end_to_end"]
    correct = report["failed"] == 0
    missing = [m["name"] for m in listed if m["name"] not in report["values"]]
    if missing and correct:
        raise StartError(f"the harness computed no value for {missing}")
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["values"].get(m["name"], 0.0), "unit": m["unit"]}
                    for m in listed},
    }


def describe(report: dict, spec: dict) -> str:
    """A few readable lines ahead of the result."""
    env = report["environment"]
    lines = [
        f"perfbench {report['workload']} seed={env['seed']} trace={report['trace']}: "
        f"{report['rounds']} rounds, {report['attempted']} operations, {report['failed']} failed "
        f"(ops_failed_ratio {report['ops_failed_ratio']:g}), {report['digests_checked']} digests checked"
        + ("" if report["digests_recorded"] else " (none recorded for this seed)"),
        f"python {env['python']}, nproc {env['nproc']}, {env['platform']}, commit {env['commit']}",
        f"payload_error_bytes {report['payload_error_bytes']} (apvd; {report['lossy_corners']} lossy corners)",
    ]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in report["values"].items():
        sample = report["samples"].get(name)
        extra = "" if sample is None else "  " + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in sample.items())
        lines.append(f"  {name:34} {value:>14.6g} {units.get(name, '')}{extra}")
    for problem in report["problems"][:10]:
        lines.append(f"FAILED {problem}")
    if report["trace"]:
        lines.append(f"tracing overhead: {report['tracing_overhead'] or 'no untraced report to compare with'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        report = measure(args.workload, args.seed, seconds, bool(args.trace))
        line = result(report, spec)
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(describe(report, spec))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
