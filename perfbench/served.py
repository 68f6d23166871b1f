"""The served-http workload: the real ``repro-datalog serve`` server.

The server runs as ``python -m repro.cli serve --processes 2 --registry
DIR`` and is driven by one :class:`repro.serve.ServeClient` (a single
closed-loop client with one connection at a time: on a 2-CPU host
both CPUs belong to the server's workers).  Traffic is prepared reads --
``anc(c, X)?`` on the forest and ``sg(c, Y)?`` on the tree, as in
prepared-reads -- with a delete + insert pair on the forest after every
32 reads.  Each update is applied by the dispatcher, frozen into a new
shared-memory snapshot and published to both workers, which then
re-prepare the anc shape on their next read.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

import inputs
from workloads import PreparedReads

from repro.serve import ServeClient

PROCESSES = 2
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of *pid* from ``/proc`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class ServedHttp(PreparedReads):
    """prepared-reads' inputs and reads, served over HTTP by a real
    multiprocess server."""

    name = "served-http"
    in_process = False
    # A write makes each worker re-prepare anc once (two slow reads per
    # round, 6%), which keeps the 90th percentile inside the warm reads.
    READS_PER_ROUND, SG_EVERY = 32, 4

    def __init__(self, seed, workdir) -> None:
        super().__init__(seed, workdir)
        self.server = None
        self.starts = 0
        self.tracer = None

    def make_inputs(self) -> None:
        """prepared-reads' inputs, written as the server's data files."""
        super().make_inputs()
        self.files = {}
        for name, program in (("forest", inputs.ANC_PROGRAM), ("tree", inputs.SG_PROGRAM)):
            path = os.path.join(self.workdir, f"{name}.dl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(program + self.facts[name] + "\n")
            self.files[name] = path

    # --- server lifecycle --------------------------------------------------------
    def setup(self) -> None:
        """Start a server on a fresh registry and warm both shapes on
        both workers; set-up ends when that is done."""
        self.starts += 1
        tag = f"start{self.starts}"
        registry = os.path.join(self.workdir, f"registry-{tag}")
        port_file = os.path.join(self.workdir, f"port-{tag}")
        shutil.rmtree(registry, ignore_errors=True)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log = open(os.path.join(self.workdir, f"server-{tag}.log"), "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--port-file", port_file, "--processes", str(PROCESSES),
             "--registry", registry,
             "--load", f"forest={self.files['forest']}",
             "--load", f"tree={self.files['tree']}"],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not (os.path.exists(port_file) and os.path.getsize(port_file) > 0):
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start (see {self.log.name})")
            time.sleep(0.01)
        with open(port_file, encoding="ascii") as handle:
            port = int(handle.read().strip())
        self.client = ServeClient(f"http://127.0.0.1:{port}", timeout=60.0, retries=0)
        self.client.wait_healthy(START_TIMEOUT_S)
        for _ in range(2):
            for goal_ds, goal in (("forest", "anc(1, X)?"), ("tree", "sg(1, X)?")):
                for _ in range(PROCESSES):
                    self.client.query(goal_ds, goal)

    def stop(self, tally) -> None:
        """SIGTERM the server; it must exit 0 and leave no worker process
        and no shared-memory block behind."""
        try:
            health = self.client.health()
            pids = list(health["workers"]["pids"])
            blocks = list(health["shared_memory"])
        except Exception:  # a server that never came up is still stopped
            pids, blocks = [], []

        def op():
            self.server.send_signal(signal.SIGTERM)
            return self.server.wait(timeout=STOP_TIMEOUT_S)

        def check(code):
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            leftover_workers = [pid for pid in pids if _alive(pid)]
            leftover_blocks = [b for b in blocks if os.path.exists(f"/dev/shm/{b.lstrip('/')}")]
            return code == 0 and not leftover_workers and not leftover_blocks and bool(blocks)

        try:
            tally.untimed("shutdown", op, check)
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait()
            self.log.close()
            self.server = None

    def peak_rss_mb(self) -> float:
        pids = [self.server.pid] + list(self.client.health()["workers"]["pids"])
        return sum(_vm_hwm_mb(pid) for pid in pids)

    def close(self, tally) -> None:
        if self.server is not None:
            self.stop(tally)

    # --- traffic -----------------------------------------------------------------
    def _server_span(self, tally, payload) -> None:
        """In the traced run, the server's own ``elapsed_ms`` becomes a
        child of the client-observed span; the rest is HTTP and pool."""
        if self.tracer is not None and tally.last_span is not None:
            self.tracer.add_child("serve.server.elapsed", tally.last_span, payload["elapsed_ms"])

    def query(self, dataset, goal):
        return self.client.query(dataset, goal)

    def update(self, **change):
        return self.client.update("forest", **change)

    def check_payload(self, tally, payload) -> None:
        super().check_payload(tally, payload)
        self._server_span(tally, payload)

    def round(self, tally) -> None:
        self.reads_and_write(tally)

    def install_trace(self, tracer) -> None:
        """Nothing to wrap in this process: the layers run in the server.
        The traced run reads the server's own ``elapsed_ms`` per request
        and its merged ``/metrics`` instead."""
        self.metrics_before = self.client.metrics()
