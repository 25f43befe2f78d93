"""One benchmark child process: set up, then run one pass of a workload.

    child.py WORKLOAD SEED SPEC_DIR MODE SPAWNED

MODE is ``setup`` (set up and exit), ``pass`` (one untraced pass) or
``trace`` (one pass with the per-layer tracer of layers.py installed).
SPAWNED is the CLOCK_MONOTONIC time (system-wide on Linux) at which the
parent spawned the child.  Set-up is interpreter start, ``import
gradednil.cli`` and parsing and validating the workload's spec files, as
every CLI call pays it.  The child prints one JSON line.

Set-up and an untraced pass each report their wall time (``setup_wall_s``,
``wall_s``) and the same time at the reference machine speed (``setup_s``,
``pass_s``).  The speed of a shared host drifts by tens of percent within
seconds, so a SIGALRM handler runs a fixed probe every PROBE_INTERVAL_S
seconds of the pass (SETUP_PROBE_INTERVAL_S of set-up); each interval
between probes is scaled by PROBE_REF_S over the probe durations around it,
and the probes' own time is left out.  The probe is independent of the
program, so a change to the program moves ``pass_s`` and ``setup_s`` as it
moves the wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS, digest, judge

PROBE_INTERVAL_S = 0.1
SETUP_PROBE_INTERVAL_S = 0.02  # set-up lasts a few tenths of a second
PROBE_REF_S = 0.0018  # one probe at the reference speed (2-vCPU Intel Xeon)


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_kernel():
    """Fixed pure-Python work of about 1.8 ms with a small working set."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key)
    return acc


class SpeedProbe:
    """Samples machine speed during set-up or a pass; see the module docstring."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []  # (start, duration) of each probe

    def _probe(self, signum, frame):
        start = now()
        probe_kernel()
        self.samples.append((start, now() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Time from t0 to t1 without the probes, at the reference speed.

        The interval before probe i runs at the median speed of probes
        i-1, i and i+1, so one probe slowed by an interrupt does not skew
        it; the tail after the last probe runs at the last probe's speed.
        """
        samples = [s for s in self.samples if s[0] < t1]
        if not samples:
            return t1 - t0
        speed = [PROBE_REF_S / d for _, d in samples]
        total, last = 0.0, t0
        for i, (start, duration) in enumerate(samples):
            total += (start - last) * statistics.median(speed[max(0, i - 1):i + 2])
            last = start + duration
        return total + (t1 - last) * speed[-1]


def run_pass(cli, wl, spec_dir, seed, probed):
    """Run every command of the workload in-process; time the whole pass."""
    outcomes = []
    probe = SpeedProbe(PROBE_INTERVAL_S)
    with probe if probed else contextlib.nullcontext():
        t0 = now()
        for kind, label in wl.commands:
            buf = io.StringIO()
            code = error = None
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(wl.argv(kind, label, spec_dir, seed))
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a raising command is counted, never fatal
                traceback.print_exc()
                error = repr(exc)
            outcomes.append((kind, label, code, error, buf.getvalue()))
        t1 = now()
    judged = [judge(*o) for o in outcomes]
    return {
        "wall_s": t1 - t0,
        "pass_s": probe.scaled(t0, t1),
        "probes": len(probe.samples),
        "commands": len(judged),
        "exits": [o[2] for o in outcomes],
        "failed": sum(j[0] for j in judged),
        "capped": sum(j[1] for j in judged),
        "correct": all(j[2] for j in judged),
        "digest": digest([j[3] for j in judged]),
    }


def main(argv):
    name, seed, spec_dir, mode, spawned = argv
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as probe:
        from gradednil import cli, specfile

        wl = WORKLOADS[name]
        for label in wl.parsed_specs():
            specfile.parse_spec(os.path.join(spec_dir, f"{label}.spec"))
        ready = now()
    out = {"setup_s": probe.scaled(float(spawned), ready),
           "setup_wall_s": ready - float(spawned)}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import layers

            tracer = layers.install()
        out.update(run_pass(cli, wl, spec_dir, int(seed), tracer is None))
        if tracer is not None:
            out["trace"] = tracer.dump()
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
