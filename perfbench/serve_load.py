"""``serve_ndjson``: an NDJSON load generator for ``repro-serve``.

One generator process drives the daemon over :data:`CONNECTIONS` TCP
connections.  Many tenants share each connection (every NDJSON line
carries its tenant); a tenant always uses the same connection, and the
daemon commits one connection's lines in arrival order, so a tenant's
``free`` never overtakes its ``alloc``.

The generator is one synchronous loop over non-blocking sockets, so its
clock readings do not wait on an event loop's timer.  Two phases are
measured:

* the light phase, open loop at :data:`LIGHT_RATE`, far below capacity:
  requests go out on a fixed schedule whatever the daemon's progress,
  the loop spinning between sends.  Latency runs from the moment a
  request was *due* until its answer is read, so a stall of either
  process charges every request due during it; how late the generator
  itself sent is reported apart as ``gen.lag_ms``;
* the saturation phase, closed loop: :data:`SATURATION_WINDOW` requests
  are kept in flight, and the answer rate is the daemon's sustained
  capacity.  The mean latency is then the window over the rate; its p90
  shows how evenly the daemon serves that backlog.  The loop blocks
  while the window is full, so the CPU seconds of generator and daemon
  show which one limits the rate.
"""

from __future__ import annotations

import gc
import json
import random
import select
import socket
import time

CONNECTIONS = 2
TENANTS = 32
N_PUS = 256  # knl-snc4-flat: 64 cores x 4 hyperthreads
MiB = 1 << 20

LIGHT_RATE = 300.0         # req/s of the fixed light phase
LIGHT_WINDOW_S = 1.0       # light-phase percentiles are per window, then median
WARMUP_RATE = 1000.0       # req/s of the unmeasured warm-up
WARMUP_S = 3.0
SATURATION_WINDOW = 256    # requests kept in flight in the saturation phase
SATURATION_SKIP_S = 1.0    # ramp-up left out of the saturation rate
MAX_INFLIGHT = 1000        # an open-loop phase stops sending beyond this; the
                           # daemon's default admission window is 1024
TARGET_LIVE = 10           # steady live buffers per tenant
VERBS = ("alloc", "alloc_many", "query", "free", "migrate")

ATTR_SIZES = {
    "Bandwidth": (32 * MiB, 256 * MiB),
    "Latency": (1 * MiB, 16 * MiB),
    "Capacity": (128 * MiB, 512 * MiB),
}


class Schedule:
    """The seeded request stream; a request is taken only when it is sent.

    Live Bandwidth buffers total ~23 GiB (more than the 4 x 3.6 GiB of
    MCDRAM, so the §VII fallback walks) and all live buffers ~45 GiB
    (well under the ~100 GiB of the machine), so no request should fail.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"serve:{seed}")
        self.tenants = [f"t{i:02d}" for i in range(TENANTS)]
        self.live: dict[str, dict[str, str]] = {t: {} for t in self.tenants}
        self.handles = 0
        self.next_id = 1
        self.pending: list[tuple] = []

    def _new_alloc(self, tenant: str) -> dict:
        rng = self.rng
        attr = rng.choices(("Bandwidth", "Latency", "Capacity"), (5, 3, 2))[0]
        lo, hi = ATTR_SIZES[attr]
        self.handles += 1
        handle = f"h{self.handles}"
        self.live[tenant][handle] = attr
        return {
            "handle": handle,
            "size": rng.randrange(lo, hi, 4096),
            "attribute": attr,
            "initiator": rng.randrange(N_PUS),
        }

    def _body(self, tenant: str) -> tuple[str, dict]:
        """30% reads, 3% migrates; the rest hold the live set near target."""
        rng = self.rng
        live = self.live[tenant]
        n = len(live)
        r = rng.random()
        if r < 0.30:
            return "query", {
                "attribute": rng.choice(tuple(ATTR_SIZES)),
                "initiator": rng.randrange(N_PUS),
            }
        if r < 0.33 and live:
            handle = rng.choice(sorted(live))
            attr = rng.choice([a for a in ATTR_SIZES if a != live[handle]])
            live[handle] = attr
            return "migrate", {"handle": handle, "attribute": attr}
        if n > TARGET_LIVE or (n == TARGET_LIVE and rng.random() < 0.5):
            handle = rng.choice(sorted(live))
            del live[handle]
            return "free", {"handle": handle}
        if rng.random() < 0.2:
            reqs = [self._new_alloc(tenant) for _ in range(rng.randint(2, 4))]
            return "alloc_many", {"requests": reqs}
        return "alloc", self._new_alloc(tenant)

    def _line(self, verb: str, tenant: str, payload: dict) -> tuple:
        rid = self.next_id
        self.next_id += 1
        body = {"verb": verb, "tenant": tenant, "id": rid, "payload": payload}
        line = (json.dumps(body, separators=(",", ":")) + "\n").encode()
        return rid, tenant, verb, line

    def take(self, n: int) -> list[tuple]:
        """The next n requests: (id, tenant, verb, encoded line)."""
        out = self.pending[:n]
        self.pending = self.pending[n:]
        while len(out) < n:
            tenant = self.rng.choice(self.tenants)
            verb, payload = self._body(tenant)
            out.append(self._line(verb, tenant, payload))
        return out

    def give_back(self, unsent: list[tuple]) -> None:
        self.pending = unsent + self.pending

    def control(self, verb: str, tenant: str) -> tuple:
        return self._line(verb, tenant, {})


def _conn_of(tenant: str) -> int:
    return int(tenant[1:]) % CONNECTIONS


def percentile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _median(values: list[float]) -> float:
    return percentile(sorted(values), 0.5)


class Client:
    """Two NDJSON connections and the response bookkeeping."""

    def __init__(self, host: str, port: int) -> None:
        self.socks = []
        for _ in range(CONNECTIONS):
            sock = socket.create_connection((host, port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.partial = {s.fileno(): b"" for s in self.socks}
        self.expect: dict[int, tuple[str, str, bytes]] = {}
        self.done_at: dict[int, float] = {}
        self.bad: dict[int, str] = {}
        self.replies: dict[int, dict] = {}
        self.control_ids: set[int] = set()
        self.sent_verbs = dict.fromkeys(VERBS, 0)
        self.protocol_errors: list[str] = []

    def send(self, req: tuple) -> None:
        rid, tenant, verb, line = req
        suffix = f'"tenant":"{tenant}","verb":"{verb}"}}\n'.encode()
        self.expect[rid] = (tenant, verb, suffix)
        if verb in self.sent_verbs:
            self.sent_verbs[verb] += 1
        self.socks[_conn_of(tenant)].sendall(line)

    def poll(self, timeout: float) -> None:
        """Read every answer that has arrived, waiting up to ``timeout``."""
        ready, _, _ = select.select(self.socks, [], [], timeout)
        if not ready:
            return
        now = time.perf_counter()
        for sock in ready:
            data = sock.recv(1 << 18)
            if not data:
                raise ConnectionError("daemon closed the connection")
            fd = sock.fileno()
            lines = (self.partial[fd] + data).split(b"\n")
            self.partial[fd] = lines.pop()
            for line in lines:
                self._answer(line + b"\n", now)

    def _answer(self, line: bytes, now: float) -> None:
        # The daemon writes canonical JSON with sorted keys: a success
        # starts with its id and ends with its tenant and verb, so the
        # common case is checked without a full parse (the generator's
        # own CPU time would otherwise show up as latency).
        if line.startswith(b'{"id":') and b'"ok":false' not in line:
            rid = int(line[6:line.index(b",", 6)])
            want = self.expect.get(rid)
            if (want is not None and rid not in self.control_ids
                    and line.endswith(want[2])):
                del self.expect[rid]
                self.done_at[rid] = now
                return
        body = json.loads(line)
        rid = body.get("id")
        want = self.expect.pop(rid, None)
        if want is None:
            self.protocol_errors.append(f"unmatched response {line[:120]!r}")
            return
        self.done_at[rid] = now
        if (body.get("tenant"), body.get("verb")) != want[:2]:
            self.protocol_errors.append(f"response {rid} does not match {want[:2]}")
        if not body.get("ok"):
            self.bad[rid] = body.get("error", "?")
        elif body.get("verb") == "alloc_many":
            for item in body["result"]["results"]:
                if not item["ok"]:
                    self.bad[rid] = item.get("error") or "?"
        if rid in self.control_ids:
            self.replies[rid] = body

    def call(self, req: tuple, timeout: float = 30.0) -> dict:
        """Send one control request and wait for its response."""
        rid = req[0]
        self.control_ids.add(rid)
        self.send(req)
        deadline = time.perf_counter() + timeout
        while rid not in self.replies:
            if time.perf_counter() > deadline:
                raise TimeoutError(f"no answer to control request {rid}")
            self.poll(0.05)
        self.control_ids.discard(rid)
        self.done_at.pop(rid, None)
        return self.replies.pop(rid)

    @property
    def inflight(self) -> int:
        return len(self.expect)

    def close(self) -> None:
        for sock in self.socks:
            sock.close()


def run_step(client: Client, schedule: Schedule, rate: float,
             seconds: float) -> dict:
    """Open loop: send ``rate * seconds`` requests on a fixed schedule."""
    reqs = schedule.take(max(1, int(rate * seconds)))
    # The generator's own collector pauses would show up as daemon latency.
    gc.collect()
    gc.disable()
    try:
        return _send_on_schedule(client, schedule, reqs, rate)
    finally:
        gc.enable()


def _send_on_schedule(client: Client, schedule: Schedule,
                      reqs: list[tuple], rate: float) -> dict:
    n = len(reqs)
    interval = 1.0 / rate
    clock = time.perf_counter
    start = clock() + 0.002
    due: dict[int, float] = {}
    lags = []
    sent = 0
    while sent < n and client.inflight <= MAX_INFLIGHT:
        now = clock()
        while sent < n and start + sent * interval <= now:
            req = reqs[sent]
            t_due = start + sent * interval
            due[req[0]] = t_due
            lags.append(now - t_due)
            client.send(req)
            sent += 1
        client.poll(0)
    schedule.give_back(reqs[sent:])
    out = _collect(client, due)
    per_window: dict[int, list[float]] = {}
    for rid, ms in out.pop("latency_ms").items():
        per_window.setdefault(int((due[rid] - start) / LIGHT_WINDOW_S),
                              []).append(ms)
    # A partial last window is left out.
    full = sorted(i for i, w in per_window.items()
                  if len(w) >= 0.9 * rate * LIGHT_WINDOW_S)
    windows = [sorted(per_window[i]) for i in full]
    lags.sort()
    out["per_window"] = [
        {"t_start": start + i * LIGHT_WINDOW_S,
         "t_end": start + (i + 1) * LIGHT_WINDOW_S,
         "p50_ms": percentile(w, 0.50), "p90_ms": percentile(w, 0.90)}
        for i, w in zip(full, windows)
    ]
    out.update(
        offered_rps=rate,
        t_start=start,
        t_end=start + sent * interval,
        aborted=sent < n,
        windows=len(windows),
        window_p50_ms=_median([percentile(w, 0.50) for w in windows]),
        window_p90_ms=_median([percentile(w, 0.90) for w in windows]),
        window_p99_ms=_median([percentile(w, 0.99) for w in windows]),
        lag_p99_ms=percentile(lags, 0.99) * 1e3,
        lag_max_ms=lags[-1] * 1e3 if lags else 0.0,
    )
    return out


def _collect(client: Client, sent_at: dict[int, float]) -> dict:
    """Wait for the answers (10 s at most); latency and failures per id."""
    deadline = time.perf_counter() + 10.0
    while any(rid in client.expect for rid in sent_at) and (
        time.perf_counter() < deadline
    ):
        client.poll(0.01)
    latency_ms = {}
    failed = 0
    for rid, t0 in sent_at.items():
        t = client.done_at.pop(rid, None)
        if t is None or rid in client.bad:
            failed += 1
        if t is not None:
            latency_ms[rid] = (t - t0) * 1e3
    lat = sorted(latency_ms.values())
    return {
        "sent": len(sent_at),
        "failed": failed,
        "unanswered": sum(1 for rid in sent_at if rid in client.expect),
        "samples": len(lat),
        "p50_ms": percentile(lat, 0.50),
        "p90_ms": percentile(lat, 0.90),
        "p99_ms": percentile(lat, 0.99),
        "errors": sorted({client.bad[r] for r in sent_at if r in client.bad}),
        "latency_ms": latency_ms,
    }


def run_saturation(client: Client, schedule: Schedule, seconds: float,
                   daemon_cpu) -> dict:
    """Closed loop: keep SATURATION_WINDOW requests in flight."""
    gc.collect()
    gc.disable()
    try:
        clock = time.perf_counter
        start = clock()
        count_from = start + SATURATION_SKIP_S
        end = start + seconds
        sent_at: dict[int, float] = {}
        gen_cpu, dmn_cpu = time.process_time(), daemon_cpu()
        while clock() < end:
            room = SATURATION_WINDOW - client.inflight
            if room > 0:
                for req in schedule.take(room):
                    sent_at[req[0]] = clock()
                    client.send(req)
            client.poll(0.01)
        gen_cpu, dmn_cpu = time.process_time() - gen_cpu, daemon_cpu() - dmn_cpu
        answered = sum(
            1 for rid in sent_at
            if count_from <= client.done_at.get(rid, end + 1.0) <= end
        )
        out = _collect(client, sent_at)
    finally:
        gc.enable()
    latency_ms = out.pop("latency_ms")
    counted = sorted(ms for rid, ms in latency_ms.items()
                     if count_from <= sent_at[rid] <= end)
    # Per 1 s window after the ramp: answers read in it, and the latency
    # of the requests sent in it.
    n_windows = int((end - count_from) / LIGHT_WINDOW_S)
    answers = [0] * n_windows
    sent_lat: list[list[float]] = [[] for _ in range(n_windows)]
    for rid, ms in latency_ms.items():
        done = int((sent_at[rid] + ms / 1e3 - count_from) / LIGHT_WINDOW_S)
        if 0 <= done < n_windows:
            answers[done] += 1
        sent = int((sent_at[rid] - count_from) / LIGHT_WINDOW_S)
        if 0 <= sent < n_windows:
            sent_lat[sent].append(ms)
    out.update(
        counted=len(counted),
        counted_p50_ms=percentile(counted, 0.50),
        counted_p90_ms=percentile(counted, 0.90),
        rps=answered / (end - count_from),
        t_start=count_from,
        t_end=end,
        per_window=[
            {"t_start": count_from + i * LIGHT_WINDOW_S,
             "t_end": count_from + (i + 1) * LIGHT_WINDOW_S,
             "rps": answers[i] / LIGHT_WINDOW_S,
             "p90_ms": percentile(sorted(sent_lat[i]), 0.90)}
            for i in range(n_windows)
        ],
        generator_cpu_s=gen_cpu,
        daemon_cpu_s=dmn_cpu,
        wall_s=seconds,
    )
    return out


def drive(host: str, port: int, seed: int, light_s: float,
          saturation_s: float, after_light, daemon_cpu) -> dict:
    """Open tenants, warm up, run the light and saturation phases, close,
    and check that the daemon ends empty with every page back.

    ``after_light()`` is called once the light phase ends; ``daemon_cpu()``
    returns the daemon's CPU seconds so far.
    """
    schedule = Schedule(seed)
    client = Client(host, port)
    errors: list[str] = []
    try:
        before = client.call(schedule.control("stats", "t00"))
        for tenant in schedule.tenants:
            resp = client.call(schedule.control("open", tenant))
            if not resp["ok"]:
                errors.append(f"open {tenant}: {resp.get('error')}")
        # Warm-up: the live set grows to its steady size and MCDRAM fills
        # before anything is measured (the live set needs ~1300 requests).
        warmup = run_step(client, schedule, WARMUP_RATE, WARMUP_S)
        light = run_step(client, schedule, LIGHT_RATE, light_s)
        after_light()
        saturation = run_saturation(client, schedule, saturation_s, daemon_cpu)
        for tenant in schedule.tenants:
            resp = client.call(schedule.control("close", tenant))
            if not resp["ok"]:
                errors.append(f"close {tenant}: {resp.get('error')}")
        after = client.call(schedule.control("stats", "t00"))
    finally:
        client.close()
    errors.extend(client.protocol_errors)
    errors.extend(_final_state_errors(before, after))
    phases = [warmup, light, saturation]
    sent = sum(client.sent_verbs.values())
    return {
        "warmup": warmup,
        "light": light,
        "saturation": saturation,
        "mix": {verb: n / sent for verb, n in client.sent_verbs.items()},
        "attempted": sum(p["sent"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "errors": errors + [e for p in phases for e in p["errors"]],
    }


def _final_state_errors(before: dict, after: dict) -> list[str]:
    """After every tenant closed: nothing live, pages back where they were."""
    errors = []
    b, a = before["result"], after["result"]
    if a["sessions"]:
        errors.append(f"sessions left open: {sorted(a['sessions'])}")
    if a["ledger"]:
        errors.append(f"ledger not empty: {a['ledger']}")
    if a["kernel"]["live_allocations"]:
        errors.append(f"{a['kernel']['live_allocations']} allocations live")
    if a["kernel"]["free_pages"] != b["kernel"]["free_pages"]:
        errors.append("free pages differ from the opening snapshot")
    return errors
