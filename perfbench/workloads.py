"""The workloads: inputs, set-up, the measured script, the checks.

Each workload is a fixed script of operations whose length is set by
count (``ops_per_second * --seconds``, rounded), never by elapsed time,
so every run with the same ``--seconds`` times the same operations and
every size metric repeats exactly for a seed.  See README.md for why
each workload exists and what it should move.
"""

from __future__ import annotations

import gzip
import json
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from client import Connection, Response
from oracle import Oracle, dctar_keys, exact
from procs import Context, ServerProcess

GZIP = ("Accept-Encoding", "gzip")
_EPOCH = re.compile(rb'"snapshot_epoch":(\d+)')


def decode(response: Response) -> Dict[str, object]:
    """The JSON envelope of a response, gunzipped when compressed."""
    body = response.body
    if response.headers.get("content-encoding") == "gzip":
        body = gzip.decompress(body)
    return json.loads(body)


def query(conn: Connection, kind: str, payload: object, headers: Sequence[Tuple[str, str]] = (GZIP,)) -> Response:
    return conn.post_json(f"/v1/query/{kind}", payload, headers)


def wire_setting(setting: Tuple[float, float]) -> Dict[str, float]:
    return {"minsupp": setting[0], "minconf": setting[1]}


@dataclass
class Op:
    """One timed operation and what the checks need from it."""

    seconds: float
    wire_bytes: int
    request_seconds: List[float]
    errors: List[str] = field(default_factory=list)
    keep: Optional[Dict[str, object]] = None


@dataclass
class Measured:
    ops: List[Op]
    wall: float
    start: float
    end: float


def run_sessions(port: int, sessions: Sequence[Callable[[Connection], List[Op]]]) -> Measured:
    """Run each session on its own connection and thread, closed loop."""
    results: List[List[Op]] = [[] for _ in sessions]
    failures: List[BaseException] = []
    conns = [Connection(port) for _ in sessions]
    gate = threading.Barrier(len(sessions) + 1)

    def body(index: int) -> None:
        gate.wait()
        try:
            results[index] = sessions[index](conns[index])
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(sessions))]
    for thread in threads:
        thread.start()
    gate.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    for conn in conns:
        conn.close()
    if failures:
        raise failures[0]
    return Measured([op for ops in results for op in ops], end - start, start, end)


def _op(started: float, responses: Sequence[Response], expect: Optional[Sequence[int]] = None) -> Op:
    """An op that began at *started* and ends now, after *responses*;
    any status other than the expected one (default 200) is an error."""
    expect = expect or [200] * len(responses)
    return Op(
        time.perf_counter() - started,
        sum(r.wire_bytes for r in responses),
        [r.seconds for r in responses],
        [f"request {i}: HTTP {r.status}, expected {want}: {r.body[:200]!r}"
         for i, (r, want) in enumerate(zip(responses, expect)) if r.status != want],
    )


def archive_checks(
    seed: int, conn: Connection, oracle: Oracle, windows: Sequence[inputs.Window],
    generation: Tuple[float, float],
) -> List[str]:
    """Q1 at the generation thresholds per window: every archived rule,
    its ids, and a DCTAR re-mine of one seeded window."""
    errors: List[str] = []
    count = len(oracle.windows)
    for window in range(count):
        response = query(conn, "trajectory", {
            "setting": wire_setting(generation), "anchor_window": window,
            "windows": [window]})
        if response.status != 200:
            errors.append(f"archive dump of window {window}: HTTP {response.status}")
            continue
        answer = decode(response)["answer"]
        errors += oracle.learn_ids(answer["trajectories"])  # type: ignore[index]
        errors += oracle.check_archive(window, answer)  # type: ignore[arg-type]
    sampled = random.Random(f"dctar/{seed}").randrange(count)
    remined = dctar_keys(windows[sampled], generation)
    expected = set(oracle.windows[sampled].archive(oracle.generation))
    if remined != expected:
        errors.append(f"DCTAR re-mine of window {sampled} disagrees with the oracle's "
                      f"({len(remined ^ expected)} rules differ)")
    return errors


# ----------------------------------------------------------------------
# slider-walk
# ----------------------------------------------------------------------
class SliderWalk:
    name = "slider-walk"
    ops_per_second = 45.0
    sessions = 2

    def __init__(self, tiny: bool) -> None:
        self.shape = inputs.BasketShape(windows=3 if tiny else 8, per_window=150 if tiny else 600)
        self.generation = (0.01, 0.2)
        # The decoded series of the KB are several times the memory
        # budget, and a step's bodies are a tenth of the response cache.
        self.memory_budget = "64k" if tiny else "320k"
        self.response_cache = "256k" if tiny else "2M"
        self.supp_range = (0.014, 0.05)
        self.conf_range = (0.25, 0.85)
        self.grid = (12, 8)
        self.revisit_share = 0.1
        self.sample_every = 8

    def setup(self, ctx: Context) -> ServerProcess:
        """Generate the baskets, build and save the v2 KB with ``repro
        build``, start ``repro serve`` over it, warm up."""
        windows = inputs.generate_windows(self.shape, ctx.seed)
        fimi = ctx.work / "baskets.fimi"
        fimi.write_text(inputs.fimi_text(windows), "utf-8")
        kb = ctx.work / "kb.tara"
        ctx.run_program("build", [
            "--input", str(fimi), "--out", str(kb), "--batches", str(self.shape.windows),
            "--min-support", repr(self.generation[0]),
            "--min-confidence", repr(self.generation[1]), "--item-index"])
        server = ctx.start_server("serve", [
            "--kb", str(kb), "--port", "0", "--memory-budget", self.memory_budget,
            "--response-cache", self.response_cache])
        server.state["windows"] = windows
        server.state["kb_bytes"] = kb.stat().st_size
        # Lazy set-up outside the walk: materialize every window's slice
        # and run each request class once at the generation corner.
        with Connection(server.port) as conn:
            corner = wire_setting(self.generation)
            for window in range(self.shape.windows):
                query(conn, "recommend", {"setting": corner, "window": window})
            top = {"minsupp": 0.9, "minconf": 0.9}
            query(conn, "trajectory", {"setting": top, "anchor_window": 0})
            query(conn, "compare", {"first": top, "second": corner, "windows": [0]})
            query(conn, "content", {"setting": top, "items": [0]})
        return server

    def script(self, ctx: Context, ops: int) -> List[List[Step]]:
        """Per session, the steps of its walk.  A return to an earlier
        setting also returns to that step's window and rule pick."""
        per_session = -(-ops // self.sessions)
        scripts = []
        for session in range(self.sessions):
            walk = inputs.walk_settings(
                ctx.seed, session, per_session + 1,
                supp_range=self.supp_range, conf_range=self.conf_range,
                grid=self.grid, revisit_share=self.revisit_share)
            rng = random.Random(f"steps/{ctx.seed}/{session}")
            steps: List[Step] = []
            for index in range(1, per_session + 1):
                setting, earlier = walk[index]
                window, pick = rng.randrange(self.shape.windows), rng.randrange(8)
                if earlier:
                    window, pick = steps[earlier - 1].window, steps[earlier - 1].pick
                steps.append(Step(index, setting, walk[index - 1][0], window, pick, earlier))
            scripts.append(steps)
        return scripts

    def measure(self, ctx: Context, server: ServerProcess, ops: int) -> Measured:
        scripts = self.script(ctx, ops)
        fallback = most_frequent_item(server.state["windows"])
        sample = random.Random(f"sample/{ctx.seed}")
        keep = [[sample.randrange(self.sample_every) == 0 for _ in s] for s in scripts]

        def session(index: int) -> Callable[[Connection], List[Op]]:
            def walk(conn: Connection) -> List[Op]:
                held: Dict[int, Dict[str, object]] = {}
                return [
                    self._step(conn, step, fallback, held, keep[index][number])
                    for number, step in enumerate(scripts[index])
                ]
            return walk

        return run_sessions(server.port, [session(i) for i in range(self.sessions)])

    def _step(self, conn: Connection, step: "Step", fallback: int,
              held: Dict[int, Dict[str, object]], keep: bool) -> Op:
        """Q3, Q1, Q2, Q5 at the step's setting.  On a return to an earlier
        step, each request carries the ETag the session holds for that
        step's request of the same class, as a UI revalidating its cached
        panels does: 304 when the request is the same, else 200."""
        started = time.perf_counter()
        cached = held.get(step.earlier, {}) if step.earlier else {}
        kept: Dict[str, object] = {}
        responses: List[Response] = []
        expect: List[int] = []

        def ask(kind: str, payload: Dict[str, object]) -> Response:
            headers = [GZIP]
            status = 200
            if kind in cached:
                earlier_payload, tag = cached[kind]  # type: ignore[misc]
                headers.append(("If-None-Match", tag))
                status = 304 if earlier_payload == payload else 200
            response = query(conn, kind, payload, headers)
            responses.append(response)
            expect.append(status)
            if response.status == 304:
                kept[kind] = cached[kind]
            elif "etag" in response.headers:
                kept[kind] = (payload, response.headers["etag"])
            return response

        wired = wire_setting(step.setting)
        ask("recommend", {"setting": wired, "window": step.window})
        q1 = ask("trajectory", {"setting": wired, "anchor_window": step.window})
        item = cached.get("item") if q1.status == 304 else None
        if item is None and q1.status == 200:
            item = rule_item(q1, step.pick)
        item = fallback if item is None else item
        kept["item"] = item
        ask("compare", {"first": wire_setting(step.previous), "second": wired})
        ask("content", {"setting": wired, "items": [item]})
        held[step.index] = kept
        op = _op(started, responses, expect)
        if keep:
            op.keep = {"setting": step.setting, "previous": step.previous,
                       "window": step.window, "item": item, "responses": responses}
        return op

    def check(self, ctx: Context, server: ServerProcess, measured: Measured) -> List[str]:
        windows = server.state["windows"]
        oracle = Oracle(self.generation, windows)
        with Connection(server.port) as conn:
            errors = archive_checks(ctx.seed, conn, oracle, windows, self.generation)
            rng = random.Random(f"probes/{ctx.seed}")
            for op in measured.ops:
                if op.keep is not None and not op.errors:
                    op.errors += check_step(conn, oracle, op.keep, rng)
        return errors


@dataclass(frozen=True)
class Step:
    """One slider-walk step; *earlier* is the step index it returns to."""

    index: int
    setting: Tuple[float, float]
    previous: Tuple[float, float]
    window: int
    pick: int
    earlier: Optional[int]


def rule_item(q1: Response, pick: int) -> Optional[int]:
    """The first item of the *pick*-th rule of a Q1 answer (or of its
    last rule when it has fewer), found without parsing the whole body."""
    body = q1.body
    if q1.headers.get("content-encoding") == "gzip":
        body = gzip.decompress(body)
    marker = b'"antecedent":['
    at = body.find(marker)
    for _ in range(pick):
        following = body.find(marker, at + 1)
        if following < 0:
            break
        at = following
    if at < 0:
        return None
    start = at + len(marker)
    return int(body[start : body.index(b"]", start)].split(b",")[0])


def most_frequent_item(windows: Sequence[inputs.Window]) -> int:
    """The item in most generated baskets (Q5's pick when Q1 is empty)."""
    counts: Dict[int, int] = {}
    for window in windows:
        for basket in window:
            for item in basket:
                counts[item] = counts.get(item, 0) + 1
    return min(counts, key=lambda item: (-counts[item], item))


def gzip_identity_errors(conn: Connection, kind: str, payload: object, response: Response) -> List[str]:
    """A gzip body must gunzip to the bytes an identity request gets."""
    if response.headers.get("content-encoding") != "gzip":
        return []
    plain = query(conn, kind, payload, headers=())
    unzipped = gzip.decompress(response.body)
    marker = b'"answer":'
    if plain.status != 200 or plain.body[plain.body.index(marker):] != unzipped[unzipped.index(marker):]:
        return [f"{kind}: gzip body does not gunzip to the identity answer bytes"]
    return []


def check_step(conn: Connection, oracle: Oracle, kept: Dict[str, object], rng: random.Random) -> List[str]:
    """Oracle checks of one step's answers; a 304 has no body to check."""
    setting, previous = exact(kept["setting"]), exact(kept["previous"])  # type: ignore[arg-type]
    window: int = kept["window"]  # type: ignore[assignment]
    item: int = kept["item"]  # type: ignore[assignment]
    wired = wire_setting(kept["setting"])  # type: ignore[arg-type]
    checks = (
        ("recommend", {"setting": wired, "window": window},
         lambda answer: oracle.check_q3(answer, setting, window, rng)),
        ("trajectory", {"setting": wired, "anchor_window": window},
         lambda answer: oracle.check_q1(answer, setting, window, range(len(oracle.windows)))),
        ("compare", {"first": wire_setting(kept["previous"]), "second": wired},  # type: ignore[arg-type]
         lambda answer: oracle.check_q2(answer, previous, setting)),
        ("content", {"setting": wired, "items": [item]},
         lambda answer: oracle.check_q5(answer, setting, item)),
    )
    errors: List[str] = []
    for (kind, payload, check), response in zip(checks, kept["responses"]):  # type: ignore[call-overload]
        if response.status == 200:
            errors += check(decode(response)["answer"])
            errors += gzip_identity_errors(conn, kind, payload, response)
    return errors


# ----------------------------------------------------------------------
# ingest-fresh
# ----------------------------------------------------------------------
class IngestFresh:
    name = "ingest-fresh"
    ops_per_second = 7.0
    sessions = 1

    def __init__(self, tiny: bool) -> None:
        self.per_window = 120 if tiny else 400
        self.seed_windows = 2 if tiny else 4
        self.generation = (0.01, 0.2)
        self.trajectory_span = 4
        self.sample_every = 5

    def _shape(self, appends: int) -> inputs.BasketShape:
        return inputs.BasketShape(windows=self.seed_windows + appends, per_window=self.per_window)

    def setup(self, ctx: Context) -> ServerProcess:
        windows = inputs.generate_windows(self._shape(ctx.ops), ctx.seed)
        server = ctx.start_server("ingest", [], launcher_args=[
            "--min-support", repr(self.generation[0]),
            "--min-confidence", repr(self.generation[1])])
        with Connection(server.port) as conn:
            batches = [inputs.append_payload(window, i * self.per_window)["batches"][0]
                       for i, window in enumerate(windows[: self.seed_windows])]
            seeded = conn.post_json("/v1/admin/append", {"batches": batches})
            if seeded.status != 200:
                raise RuntimeError(f"seed publish failed: HTTP {seeded.status} {seeded.body[:200]!r}")
            latest = self.seed_windows - 1
            warm = {"minsupp": 0.02, "minconf": 0.5}
            query(conn, "recommend", {"setting": warm, "window": latest})
            query(conn, "trajectory", {"setting": warm, "anchor_window": latest,
                                       "windows": list(range(latest + 1))})
        server.state["windows"] = windows
        return server

    def measure(self, ctx: Context, server: ServerProcess, ops: int) -> Measured:
        windows = server.state["windows"]
        rng = random.Random(f"ingest/{ctx.seed}")
        settings = inputs.stratified_settings(rng, ops, (0.014, 0.05), (0.25, 0.85))
        keep = [rng.randrange(self.sample_every) == 0 for _ in range(ops)]

        def appender(conn: Connection) -> List[Op]:
            done = []
            for op_index in range(ops):
                started = time.perf_counter()
                window = self.seed_windows + op_index
                wired = wire_setting(settings[op_index])
                append = conn.post_json(
                    "/v1/admin/append",
                    inputs.append_payload(windows[window], window * self.per_window))
                # Q3 at "the latest window": its cache entry belongs to the
                # new snapshot and retires with it.
                q3 = query(conn, "recommend", {"setting": wired, "window": None})
                span = list(range(max(0, window - self.trajectory_span + 1), window + 1))
                q1 = query(conn, "trajectory", {"setting": wired, "anchor_window": window,
                                                "windows": span})
                responses = [append, q3, q1]
                op = _op(started, responses)
                if not op.errors:
                    op.errors += epoch_errors(append, q3, q1, window + 1)
                if keep[op_index]:
                    op.keep = {"setting": settings[op_index], "window": window, "span": span,
                               "responses": responses}
                done.append(op)
            return done

        return run_sessions(server.port, [appender])

    def check(self, ctx: Context, server: ServerProcess, measured: Measured) -> List[str]:
        windows = server.state["windows"]
        oracle = Oracle(self.generation, windows)
        rng = random.Random(f"probes/{ctx.seed}")
        for op in measured.ops:
            if op.keep is None or op.errors:
                continue
            setting = exact(op.keep["setting"])  # type: ignore[arg-type]
            window: int = op.keep["window"]  # type: ignore[assignment]
            _, q3, q1 = op.keep["responses"]  # type: ignore[misc]
            op.errors += oracle.check_q3(decode(q3)["answer"], setting, window, rng)  # type: ignore[arg-type]
            op.errors += oracle.check_q1(decode(q1)["answer"], setting, window, op.keep["span"])  # type: ignore[arg-type]
        sampled = random.Random(f"dctar/{ctx.seed}").randrange(len(windows))
        remined = dctar_keys(windows[sampled], self.generation)
        if remined != set(oracle.windows[sampled].archive(oracle.generation)):
            return [f"DCTAR re-mine of window {sampled} disagrees with the oracle's"]
        return []


def epoch_errors(append: Response, q3: Response, q1: Response, windows: int) -> List[str]:
    """The append lands as exactly one new snapshot, and both reads see it."""
    published = append.json()
    errors = []
    if published.get("snapshot_epoch") != windows or published.get("windows") != windows:
        errors.append(f"append: epoch {published.get('snapshot_epoch')} / windows "
                      f"{published.get('windows')}, expected {windows}")
    for name, response in (("Q3", q3), ("Q1", q1)):
        body = response.body
        if response.headers.get("content-encoding") == "gzip":
            body = gzip.decompress(body)
        found = _EPOCH.search(body[:256])
        if found is None or int(found.group(1)) != windows:
            errors.append(f"{name}: pinned epoch {found and found.group(1)!r}, expected {windows}")
    return errors


WORKLOADS = {cls.name: cls for cls in (SliderWalk, IngestFresh)}
