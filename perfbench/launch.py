"""Child-process entry point: optionally install the span tracer, then run.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py ROLE [--trace-out FILE] [--speed-out FILE] [ROLE ARGS ...]

Roles:

``serve``        ``repro.serve.cli.serve_main(ROLE ARGS)`` — the daemon.  Its
                 event loop also runs ``calib.tick`` every
                 :data:`SPEED_TICK_S`; with ``--speed-out`` the (clock,
                 speed) samples are written to FILE when it exits.
``experiments``  ``repro.experiments.main(ROLE ARGS)`` — a cold run; prints
                 ``cold <json>`` (busy seconds, host speed) on stderr.
``app_alloc``    the in-process allocation loop: ``SEED SECONDS``.
``paper``        the warm paper-workflow worker: reads ``pass SEED INDEX``
                 lines on stdin, answers one JSON line per pass.
``setup``        set up like ``app_alloc``/``paper`` and exit (set-up timing).

Every role but ``experiments`` prints ``ready <json>`` once set up (the
daemon before its ``listening`` line): the host speed measured by
``calib`` at start and once set up, and the seconds those two
measurements took, so the parent can scale its spawn-to-ready time by
the speed of the child itself.  Worker roles then print ``result <json>``.
With ``--trace-out`` the span aggregates and raw spans are written to FILE
when the process ends.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import time

import calib

T0 = time.perf_counter()
SPEED_AT_START = calib.speed()
CALIB_S = time.perf_counter() - T0
SPEED_TICK_S = 0.05


def _setups():
    import repro

    return {p: repro.quick_setup(p) for p in ("knl-snc4-flat", "xeon-cascadelake-1lm")}


def main(argv: list[str]) -> int:
    global T0
    # The parent stops the daemon with SIGINT.  A background job of a
    # non-interactive shell starts with SIGINT ignored, and children
    # inherit that, so the handler is installed explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    role, rest = argv[0], argv[1:]
    opts = {"--trace-out": None, "--speed-out": None}
    while rest[:1] and rest[0] in opts:
        opts[rest[0]], rest = rest[1], rest[2:]
    trace_out = opts["--trace-out"]
    cold = role == "experiments"
    if cold:
        T0 = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - T0
    rec = None
    if trace_out:
        import tracer

        rec = tracer.SpanRecorder()
        tracer.install(rec)
    extra: dict = {"import_s": import_s, "speed_samples": []}
    try:
        code = _run(role, rest, rec, extra)
        if cold:
            # Import plus the experiments, with the host speed around them.
            busy_s = time.perf_counter() - T0
            speed = (SPEED_AT_START + calib.speed()) / 2
            print("cold " + json.dumps({"busy_s": busy_s, "speed": speed}),
                  file=sys.stderr, flush=True)
    finally:
        if opts["--speed-out"]:
            with open(opts["--speed-out"], "w") as fh:
                json.dump(extra["speed_samples"], fh)
        if rec is not None:
            extra["wall_s"] = time.perf_counter() - T0
            extra["cpu_s"] = time.process_time()
            rec.write(trace_out, extra)
    return code


def _ready(rec, extra: dict) -> None:
    """Mark the end of set-up and print the ``ready`` line."""
    extra["ready_wall"] = time.perf_counter() - T0
    extra["ready_cpu"] = time.process_time()
    extra["ready_root_s"] = rec.root_s if rec is not None else 0.0
    t = time.perf_counter()
    speed = (SPEED_AT_START + calib.speed()) / 2
    calib_s = CALIB_S + time.perf_counter() - t
    print("ready " + json.dumps({"speed": speed, "calib_s": calib_s}), flush=True)


def _run(role: str, args: list[str], rec, extra: dict) -> int:
    if role == "serve":
        from repro.serve.cli import serve_main
        from repro.serve.server import StreamServer

        start = StreamServer.start

        async def start_and_mark(self):
            out = await start(self)
            _ready(rec, extra)
            loop = asyncio.get_running_loop()
            samples = extra["speed_samples"]

            def tick():
                samples.append((time.perf_counter(), calib.tick()))
                loop.call_later(SPEED_TICK_S, tick)

            loop.call_later(SPEED_TICK_S, tick)
            return out

        StreamServer.start = start_and_mark
        return serve_main(args)
    if role == "experiments":
        from repro.experiments import main as experiments_main

        return experiments_main(args)
    if role not in ("app_alloc", "paper", "setup"):
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    setups = _setups()
    _ready(rec, extra)
    if role == "setup":
        return 0
    if role == "app_alloc":
        import app_alloc

        result = app_alloc.run(setups, int(args[0]), float(args[1]))
        print("result " + json.dumps(result), flush=True)
        return 0
    import paper

    worker = paper.Worker(setups)
    for line in sys.stdin:
        cmd = line.split()
        if cmd[:1] != ["pass"]:
            break
        result = worker.run_pass(int(cmd[1]), int(cmd[2]))
        print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
