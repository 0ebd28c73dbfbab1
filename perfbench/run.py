"""The repository benchmark: a figure-4 panel and a server mix, by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/spec.json`` for why each was chosen):

* ``panel-cold-fpau`` — ``repro figure4 fpau --compiler`` into an empty
  cache every time: simulation, trace encoding and packing.
* ``serve-mix`` — ``repro serve`` under a seeded closed-loop request mix
  (:mod:`mix`) over a trace cache filled during set-up.

``--trace 0`` times the real entry points with nothing wrapped and
reports the end-to-end metrics.  ``--trace 1`` does a fixed amount of
the same work under layer spans (:mod:`tracing`) and reports per-layer
metrics.  Every output is checked in both modes: panel stdout against a
golden SHA-256 made with the object oracle engine, server bodies against
the first body served for their key and, for a sample of grids, against
an in-process ``run_figure4`` on the object engine.  Raw samples are
printed before the last line, which is the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import mix  # noqa: E402
from stats import TooFewSamples, median, percentile  # noqa: E402
from tracing import ROOT_SPANS, self_seconds, top_level_seconds  # noqa: E402

SETUP_REPEATS = 3
MIN_ITERATIONS = 3
#: traced runs do this fixed work, so their counts repeat exactly
TRACED_OPS = 3
TRACED_REQUESTS_PER_LANE = 20
#: untraced serve-mix blocks per lane behind the server.* split: 128
#: computed requests, so p90 has at least 10 samples beyond it
SPLIT_BLOCKS = 4
IMPORT_PAIRS = 5
ORACLE_SAMPLES = 2
#: 300 requests per lane, about three times what a 45 s run sends
MIX_BLOCKS = 15

#: fills the serve-mix trace cache at the scale every request names
FILL_SERVE = ["figure4", "ialu", "--compiler", "--policies", "original",
              "--scale", str(mix.SCALE)]

KERNEL_FAMILIES = ("full-ham", "1bit-ham", "lut", "bdd", "original", "stats")
SERVER_COUNTERS = ("server.executions", "server.cache.hits", "server.http.304",
                   "server.coalesced.waiters", "server.simulations",
                   "server.rejected.queue_full")


class Run:
    """What one benchmark run measured and checked."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.raw: Dict[str, object] = {}
        self.metrics: Dict[str, tuple] = {}  # name -> (value, unit)
        self.notes: Dict[str, str] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


def _env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv: List[str], run: Run) -> dict:
    """Spawn ``argv`` and wait for it; wall time from spawn to exit and
    the child's peak RSS."""
    err_path = run.work / "stderr.txt"
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "stdout": out,
            "stderr": err_path.read_text(errors="replace")[-2000:]}


def repro_cli(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def traced_cli(args: List[str], out: Path, off: bool) -> List[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), "--out", str(out),
            *(["--off"] if off else []), "--", *args]


def check_panel(run: Run, result: dict, golden: str, what: str) -> None:
    digest = hashlib.sha256(result["stdout"]).hexdigest()
    run.check(result["code"] == 0 and digest == golden,
              f"{what}: exit {result['code']}, stdout sha256 {digest}"
              f" (golden {golden}) {result['stderr'][-300:]}")


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- per-layer metrics ----------------------------------------------------------

def measure_import(run: Run) -> float:
    """Fresh ``import repro`` minus a bare interpreter start, seconds."""
    bare, imported = [], []
    for _ in range(IMPORT_PAIRS):
        imported.append(run_process(
            [sys.executable, "-c", "import repro"], run)["wall_s"])
        bare.append(run_process([sys.executable, "-c", "pass"], run)["wall_s"])
    run.raw["import"] = {"import_s": imported, "bare_s": bare}
    return median(imported) - median(bare)


def load_spans(paths) -> Tuple[List[dict], Dict[str, int]]:
    """Spans of every traced process, ids made unique across files."""
    spans: List[dict] = []
    counts: Dict[str, int] = {}
    for n, path in enumerate(sorted(map(str, paths))):
        dump = json.loads(Path(path).read_text())
        for span in dump["spans"]:
            span = dict(span, id=(n, span["id"]),
                        parent=None if span["parent"] is None
                        else (n, span["parent"]))
            spans.append(span)
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def layer_metrics(run: Run, spans: List[dict], counts: Dict[str, int],
                  server_counts: Dict[str, int]) -> None:
    """Fold spans into the per-layer metrics (self seconds, summed over
    the traced run's fixed work) and counts."""
    own = self_seconds(spans)

    def s(name: str) -> float:
        return own.get(name, 0.0)

    run.metric("cpu.simulate_s", s("cpu.simulate"), "s")
    run.metric("cpu.simulations", counts.get("cpu.simulate.calls", 0),
               "count")
    run.metric("cpu.cycles_per_s", counts.get("cpu.cycles", 0)
               / s("cpu.simulate") if s("cpu.simulate") else 0.0, "1/s")
    run.metric("streams.record_s", s("streams.record"), "s")
    run.metric("streams.bytes_written", counts.get("streams.bytes_written", 0),
               "B")
    run.metric("batch.pack_s", s("batch.pack"), "s")
    run.metric("batch.sidecar_write_s", s("batch.sidecar_write"), "s")
    run.metric("batch.load_s", s("batch.load"), "s")
    run.metric("batch.drive_s", s("batch.drive"), "s")
    for family in KERNEL_FAMILIES:
        run.metric(f"batch.kernel_s.{family}", s(f"batch.kernel.{family}"),
                   "s")
    run.metric("batch.fallthrough.calls",
               counts.get("batch.fallthrough.calls", 0), "count")
    run.metric("core.synthesis_s", s("core.make_policy") + s("core.build_lut"),
               "s")
    run.metric("core.make_policy.calls",
               counts.get("core.make_policy.calls", 0), "count")
    run.metric("core.build_lut.calls", counts.get("core.build_lut.calls", 0),
               "count")
    run.metric("compiler.swap_s", s("compiler.swap"), "s")
    run.metric("workloads.build_s", s("workloads.build"), "s")
    run.metric("analysis.stats_s", s("analysis.stats"), "s")
    run.metric("analysis.render_s", s("analysis.render"), "s")
    run.metric("analysis.other_s", sum(s(name) for name in ROOT_SPANS), "s")
    for name in SERVER_COUNTERS:
        run.metric(name, server_counts.get(name, 0), "count")
    run.raw["self_s"] = own
    run.raw["counts"] = counts
    run.raw["traced_wall_s"] = top_level_seconds(spans)


SERVER_SPLIT = ("server.compute_ms.p50", "server.wait_ms.p50",
                "server.wait_ms.p90", "server.hit_ms.p50", "server.304_ms.p50")


def server_split(run: Run, samples: List[dict]) -> None:
    """Where a request's latency goes, from untraced requests: compute is
    X-Compute-Seconds, wait is the rest of a computed request's latency
    (key build, queueing, the batch barrier, HTTP)."""
    computed = [s for s in samples if s["cache"] == "computed"]
    compute = [s["compute_s"] * 1000 for s in computed]
    wait = [s["latency_s"] * 1000 - c for s, c in zip(computed, compute)]
    try:
        wait_p90 = percentile(wait, 0.9)
    except TooFewSamples as exc:
        run.check(False, f"server.wait_ms.p90: {exc}")
        wait_p90 = max(wait)
    run.metric("server.compute_ms.p50", median(compute), "ms")
    run.metric("server.wait_ms.p50", median(wait), "ms")
    run.metric("server.wait_ms.p90", wait_p90, "ms")
    run.metric("server.hit_ms.p50", median(
        [s["latency_s"] * 1000 for s in samples if s["cache"] == "hit"]), "ms")
    run.metric("server.304_ms.p50", median(
        [s["latency_s"] * 1000 for s in samples if s["status"] == 304]), "ms")


# --- the cold panel --------------------------------------------------------------

PANEL = "panel-cold-fpau"


def panel(run: Run, seconds: float, trace: bool) -> None:
    spec = json.loads((HERE / "golden.json").read_text())[PANEL]
    golden, fu_args = spec["sha256"], spec["argv"]

    def empty_cache() -> List[str]:
        # every iteration starts from an empty cache, made outside the
        # timed region
        return ["--cache-dir", str(fresh_dir(run.work / "cache"))]

    # set-up: byte-compile and page in the program, so that no timed
    # iteration pays for it; ``figure4 --help`` imports the CLI and every
    # layer it dispatches to
    setup = []
    for r in range(SETUP_REPEATS):
        result = run_process(repro_cli(["figure4", "--help"]), run)
        run.check(result["code"] == 0 and b"figure4" in result["stdout"],
                  f"set-up {r}: exit {result['code']} {result['stderr']}")
        setup.append(result["wall_s"])

    if trace:
        spans_out = run.work / "spans"
        spans_out.mkdir()
        files, base, traced = [], [], []
        for i in range(TRACED_OPS):
            for off in (True, False):
                out = spans_out / f"op{i}-{'off' if off else 'on'}.json"
                result = run_process(traced_cli(fu_args + empty_cache(), out,
                                                off), run)
                check_panel(run, result, golden, f"traced op {i}")
                main_s = json.loads(out.read_text())["main_ns"] / 1e9
                if off:
                    base.append(main_s)
                else:
                    traced.append(main_s)
                    files.append(out)
        spans, counts = load_spans(files)
        layer_metrics(run, spans, counts, {})
        for metric in SERVER_SPLIT:  # a panel has no server
            run.metric(metric, 0.0, "ms")
        run.metric("import_s", measure_import(run), "s")
        run.metric("trace.overhead_pct",
                   (median(traced) / median(base) - 1) * 100, "%")
        run.raw["in_process_s"] = {"untraced": base, "traced": traced}
        return

    walls, rss = [], []
    measured = 0.0
    while measured < seconds or len(walls) < MIN_ITERATIONS:
        started = time.perf_counter()
        result = run_process(repro_cli(fu_args + empty_cache()), run)
        check_panel(run, result, golden, f"iteration {len(walls)}")
        walls.append(result["wall_s"])
        rss.append(result["rss_mb"])
        measured += time.perf_counter() - started
    run.raw.update(setup_s=setup, wall_s=walls, rss_mb=rss)
    run.metric("latency_ms.p50", median(walls) * 1000, "ms")
    run.metric("peak_rss_mb", median(rss), "MB")
    run.metric("setup_s", median(setup), "s")
    run.notes["samples"] = f"{len(walls)} invocations"


# --- serve-mix ------------------------------------------------------------------

class Server:
    """One ``repro serve`` process on an OS-assigned port."""

    def __init__(self, argv: List[str]):
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=_env(),
                                     cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        try:
            event = json.loads(line)
        except ValueError:
            self.stop()
            raise RuntimeError(f"server did not announce itself: {line!r}")
        self.port = event["port"]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)

    def get_json(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
                ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """Closed-loop lanes over keep-alive connections, with body checks."""

    def __init__(self, server: Server, run: Run):
        self.server, self.run = server, run
        self.first_body: Dict[str, bytes] = {}
        self.lock = threading.Lock()
        self.samples: List[dict] = []

    def post(self, conn, body: bytes, etag: Optional[str] = None) -> dict:
        headers = {"Content-Type": "application/json"}
        if etag:
            headers["If-None-Match"] = etag
        started = time.perf_counter()
        conn.request("POST", "/v1/evaluate", body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        latency = time.perf_counter() - started
        compute = response.getheader("X-Compute-Seconds")
        return {"status": response.status, "latency_s": latency,
                "cache": response.getheader("X-Cache"),
                "compute_s": float(compute) if compute else None,
                "key": response.getheader("X-Request-Key"),
                "etag": response.getheader("ETag"), "body": data}

    def checked(self, reply: dict, cls: str, etag: Optional[str]) -> bool:
        if reply["status"] == 304:
            return cls == "revalidate" and reply["etag"] == etag
        if reply["status"] != 200 or cls == "revalidate":
            return False
        with self.lock:  # every 200 for a key carries the same bytes
            first = self.first_body.setdefault(reply["key"], reply["body"])
        return reply["body"] == first

    def lane(self, index: int, items: List[dict], deadline: float) -> None:
        conn = self.server.connect()
        etags: Dict[int, str] = {}
        try:
            for i, item in enumerate(items):
                if time.perf_counter() >= deadline:
                    break
                etag = (etags.get(item["ref"]) if item["cls"] == "revalidate"
                        else None)
                try:
                    reply = self.post(conn, item["body"], etag)
                except (http.client.HTTPException, OSError) as exc:
                    conn.close()
                    conn = self.server.connect()
                    reply = {"status": None, "latency_s": None, "cache": None,
                             "compute_s": None, "body": repr(exc).encode()}
                if item["cls"] == "fresh" and reply["status"] == 200:
                    etags[i] = reply["etag"]
                ok = self.checked(reply, item["cls"], etag)
                with self.lock:
                    self.run.check(ok, f"lane {index} request {i}"
                                       f" ({item['cls']}): {reply['status']}"
                                       f" {reply['body'][:200]!r}")
                    self.samples.append({
                        "lane": index, "i": i, "cls": item["cls"],
                        "status": reply["status"], "cache": reply["cache"],
                        # a refused or failed request misses every limit
                        "latency_s": reply["latency_s"]
                        if reply["status"] in (200, 304) else float("inf"),
                        "compute_s": reply["compute_s"],
                        "body": item["body"].decode(),
                        "response": reply["body"]})
            else:
                if deadline < float("inf"):  # traced runs send a fixed count
                    with self.lock:
                        self.run.check(False, f"lane {index} ran out of"
                                              f" requests before the deadline")
        finally:
            conn.close()

    def warm_up(self, bodies: List[bytes]) -> None:
        conn = self.server.connect()
        try:
            for body in bodies:
                reply = self.post(conn, body)
                self.run.check(self.checked(reply, "fresh", None),
                               f"warm-up: {reply['status']}")
        finally:
            conn.close()

    def drive(self, lanes: List[List[dict]], seconds: float) -> float:
        """Run every lane to the deadline; returns measured wall time."""
        started = time.perf_counter()
        deadline = started + seconds
        threads = [threading.Thread(target=self.lane,
                                    args=(n, items, deadline))
                   for n, items in enumerate(lanes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started


def oracle_check(run: Run, cache: Path, samples: List[dict],
                 rng: random.Random) -> None:
    """Compare served grids with an in-process object-engine run."""
    sys.path.insert(0, str(SRC))
    from repro.analysis.energy import run_figure4
    from repro.analysis.report import render_figure4
    from repro.isa.instructions import FUClass
    from repro.workloads import workload

    computed = [s for s in samples if s["cls"] == "fresh"
                and s["status"] == 200]
    for sample in rng.sample(computed, min(ORACLE_SAMPLES, len(computed))):
        served = json.loads(sample["response"])
        request = json.loads(sample["body"])
        panel = run_figure4(
            FUClass.IALU,
            workloads=[workload(n) for n in request["workloads"]],
            scale=request["scale"], stats_source="measured",
            schemes=served["policies"],
            swap_modes=request["swap_modes"], trace_cache_dir=str(cache),
            engine="object")
        cells = {f"{scheme}|{mode}": {
            "switched_bits": cell.switched_bits,
            "operations": cell.operations,
            "hardware_swaps": cell.hardware_swaps,
            "reduction_pct": round(100 * panel.reduction(scheme, mode), 4)}
            for (scheme, mode), cell in sorted(panel.cells.items())}
        run.check(served["cells"] == cells
                  and served["baseline_bits"] == panel.baseline_bits
                  and served["report"] == render_figure4(panel),
                  f"oracle mismatch for {sample['body']}")


def serve_mix(run: Run, seed: int, seconds: float, trace: bool) -> None:
    warm, lanes = mix.make_mix(seed, MIX_BLOCKS)

    def set_up(tag: str, fill_out: Optional[Path] = None,
               server_out: Optional[Path] = None, off: bool = True):
        cache = fresh_dir(run.work / f"cache-{tag}")
        fill = FILL_SERVE + ["--cache-dir", str(cache)]
        result = run_process(repro_cli(fill) if fill_out is None
                             else traced_cli(fill, fill_out, False), run)
        run.check(result["code"] == 0, f"fill {tag}: {result['stderr']}")
        serve = ["serve", "--port", "0", "--cache-dir", str(cache)]
        server = Server(repro_cli(serve) if server_out is None
                        else traced_cli(serve, server_out, off))
        try:
            client = Client(server, run)
            client.warm_up(warm)
        except BaseException:
            server.stop()
            raise
        return cache, server, client

    def drive(cache: Path, client: Client, lanes, seconds: float) -> float:
        entries = len(os.listdir(cache))
        wall = client.drive(lanes, seconds)
        # requests replay the fill's traces; a new entry means one simulated
        run.check(len(os.listdir(cache)) == entries,
                  "requests recorded new traces: the fill does not cover them")
        return wall

    if trace:
        spans_out = run.work / "spans"
        spans_out.mkdir()
        phases = {}
        for off in (True, False):
            tag = "off" if off else "on"
            count = (SPLIT_BLOCKS * mix.BLOCK if off
                     else TRACED_REQUESTS_PER_LANE)
            cache, server, client = set_up(
                tag, fill_out=None if off else spans_out / "fill.json",
                server_out=spans_out / f"server-{tag}.json", off=off)
            try:
                drive(cache, client, [lane[:count] for lane in lanes],
                      float("inf"))
                counters = server.get_json("/metrics.json")["counters"]
            finally:
                server.stop()
            phases[tag] = (client.samples, counters)
        base, traced = phases["off"][0], phases["on"][0]
        files = [spans_out / "fill.json", spans_out / "server-on.json",
                 *glob.glob(str(spans_out / "server-on.json.*"))]
        spans, counts = load_spans(files)
        layer_metrics(run, spans, counts, phases["on"][1])
        server_split(run, base)
        run.metric("import_s", measure_import(run), "s")

        def compute_s(samples) -> float:  # over the traced requests only
            return sum(s["compute_s"] for s in samples
                       if s["cache"] == "computed"
                       and s["i"] < TRACED_REQUESTS_PER_LANE)
        run.metric("trace.overhead_pct",
                   (compute_s(traced) / compute_s(base) - 1) * 100, "%")
        run.raw["requests"] = [{k: v for k, v in s.items() if k != "response"}
                               for s in base]
        return

    # set up several times for the median; the last set-up's server is
    # the one measured
    setup, server = [], None
    try:
        for r in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                shutil.rmtree(cache)
            started = time.perf_counter()
            cache, server, client = set_up(str(r))
            setup.append(time.perf_counter() - started)
        wall = drive(cache, client, lanes, seconds)
        counters = server.get_json("/metrics.json")["counters"]
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    samples = client.samples
    oracle_check(run, cache, samples, random.Random(seed))

    latencies = [s["latency_s"] * 1000 for s in samples]
    run.metric("latency_ms.p50", median(latencies), "ms")
    run.metric("peak_rss_mb", rss, "MB")
    run.metric("setup_s", median(setup), "s")
    # reported, not gated: the panel cannot carry these (see spec.json)
    try:
        run.notes["latency_ms.p90"] = f"{percentile(latencies, 0.9):.4f} ms"
    except TooFewSamples as exc:
        run.notes["latency_ms.p90"] = f"refused: {exc}"
    completed = sum(s["status"] in (200, 304) for s in samples)
    run.notes["throughput_rps"] = f"{completed / wall:.4f} 1/s"
    by_class = {}
    for s in samples:
        by_class.setdefault(s["cls"], []).append(s["latency_s"] * 1000)
    for cls, values in sorted(by_class.items()):
        run.notes[f"latency_ms.p50[{cls}]"] = \
            f"{median(values):.4f} ms (n={len(values)})"
    run.notes["samples"] = f"{len(samples)} requests in {wall:.2f} s"
    run.notes["server counters"] = json.dumps(
        {k: counters.get(k, 0) for k in SERVER_COUNTERS})
    run.raw.update(setup_s=setup, wall_s=wall, requests=[
        {k: v for k, v in s.items() if k != "response"} for s in samples])


# --- entry -------------------------------------------------------------------

WORKLOADS = (PANEL, "serve-mix")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root"
              f" of a repository checkout", file=sys.stderr)
        return 2

    # so that an interrupted run still stops its server in ``finally``
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    fresh_dir(work)
    run = Run(work)
    try:
        if args.workload == "serve-mix":
            serve_mix(run, args.seed, args.seconds, bool(args.trace))
        else:
            panel(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    for name, text in run.notes.items():
        print(f"{name:32s} {text}")
    print(f"{'fail_ratio':32s} {run.failed / max(run.attempted, 1):14.4f}"
          f" ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"raw": run.raw}, default=str))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
