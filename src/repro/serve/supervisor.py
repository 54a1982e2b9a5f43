"""The sharded multi-process serving tier: supervisor + worker fleet.

One asyncio daemon saturates one core; "heavy traffic from millions of
users" needs a process fleet.  :class:`Supervisor` forks N serving
workers -- each a full ``python -m repro serve`` subprocess, so a worker
is exactly the hardened single-process daemon (admission, deadlines,
degradation, telemetry) -- and takes on everything fleet:

* **Sharding.**  ``shard_by="name"`` (the default) assigns each sketch
  to exactly one worker via the consistent-hash ring of
  :mod:`repro.serve.sharding`; a worker loads only its shard, so memory
  scales out with the fleet.  ``shard_by="none"`` loads every sketch in
  every worker and binds them all to ONE shared data port with
  ``SO_REUSEPORT``, letting the kernel balance connections (falls back
  to per-worker ports when the platform lacks ``SO_REUSEPORT``).
* **Supervision.**  A monitor thread restarts crashed workers with
  capped exponential backoff (``backoff_base_s * 2**consecutive_failures``
  up to ``backoff_cap_s``; the failure streak resets after
  ``backoff_reset_s`` of healthy uptime).  Every (re)start bumps the
  shard-map version so clients know to re-resolve.
* **A control endpoint.**  The supervisor answers ``health``,
  ``shard_map`` and ``fleet_stats`` over the same NDJSON line protocol
  the workers speak (:mod:`repro.serve.protocol`); pooled clients
  (:class:`repro.serve.client.PooledClient`) bootstrap and re-resolve
  their routing from ``shard_map``.
* **Fleet telemetry.**  ``metrics_port`` starts an exposition sidecar
  whose ``/metrics`` is the merge of every worker's registry snapshot
  (:mod:`repro.obs.fleet`) -- one scrape target for the whole fleet.
* **Drain.**  ``stop()`` SIGTERMs the fleet and waits: each worker runs
  its own graceful drain (the PR-4 machinery), so fleet shutdown loses
  no in-flight work that a single process would have kept.

Determinism note: supervisor, workers, and clients never exchange the
assignment -- each recomputes it from ``(sketch names, worker count)``
(see :mod:`repro.serve.sharding`), and ``tests/test_serve_sharding.py``
pins cross-process agreement.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import socketserver
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import get_metrics
from repro.obs.fleet import fetch_snapshot, merge_snapshots
from repro.serve import protocol, sharding
from repro.serve.protocol import ProtocolError
from repro.serve.registry import parse_spec

__all__ = ["SupervisorConfig", "Supervisor", "WorkerState"]

#: Readiness lines printed by ``treesketch serve`` (the worker CLI).
_SERVE_RE = re.compile(r"on (\d+\.\d+\.\d+\.\d+):(\d+) \(protocol")
_TELEMETRY_RE = re.compile(r"telemetry on http://([\d.]+):(\d+)")


@dataclass
class SupervisorConfig:
    """Tunables for one :class:`Supervisor`.

    ``port`` is the *control* endpoint (shard_map / fleet_stats /
    health); data traffic goes to the workers.  ``worker_port`` only
    matters for ``shard_by="none"``: the shared ``SO_REUSEPORT`` data
    port (0 = reserve an ephemeral one).  ``worker_args`` is forwarded
    verbatim to every worker's ``treesketch serve`` argv -- deadline,
    admission, cache and thread flags all pass through.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    shard_by: str = "name"  # "name" | "none"
    worker_port: int = 0
    metrics_port: Optional[int] = None
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 5.0
    backoff_reset_s: float = 10.0
    spawn_timeout_s: float = 30.0
    drain_s: float = 5.0
    worker_args: Tuple[str, ...] = ()
    python: Optional[str] = None  # interpreter for workers (tests override)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_by not in ("name", "none"):
            raise ValueError(
                f"shard_by must be 'name' or 'none', got {self.shard_by!r}")


class WorkerState:
    """One worker slot: the live process plus its supervision history."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Optional[subprocess.Popen] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.metrics_host: Optional[str] = None
        self.metrics_port: Optional[int] = None
        self.sketches: List[str] = []
        self.state = "starting"  # starting | up | backoff | stopped
        self.restarts = 0
        self.consecutive_failures = 0
        self.last_backoff_s = 0.0
        self.restart_due: Optional[float] = None
        self.started_at: Optional[float] = None
        self.ready = threading.Event()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def info(self) -> Dict[str, Any]:
        now = time.monotonic()
        return {
            "index": self.index,
            "pid": self.pid,
            "host": self.host,
            "port": self.port,
            "metrics_host": self.metrics_host,
            "metrics_port": self.metrics_port,
            "sketches": list(self.sketches),
            "state": self.state,
            "restarts": self.restarts,
            "last_backoff_s": self.last_backoff_s,
            "uptime_s": (now - self.started_at
                         if self.state == "up" and self.started_at is not None
                         else 0.0),
        }


class Supervisor:
    """Forks, shards, restarts, aggregates, and drains a worker fleet."""

    def __init__(self, specs: List[str],
                 config: Optional[SupervisorConfig] = None) -> None:
        self.specs = list(specs)
        self.config = config or SupervisorConfig()
        parsed = [parse_spec(spec) for spec in self.specs]
        self.sketch_names = [name for name, _ in parsed]
        if len(set(self.sketch_names)) != len(self.sketch_names):
            raise ValueError(f"duplicate sketch names in {self.sketch_names}")
        self._lock = threading.RLock()
        self._workers = [WorkerState(i) for i in range(self.config.workers)]
        self._version = 0
        self._started_at: Optional[float] = None
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._control: Optional[socketserver.ThreadingTCPServer] = None
        self._control_thread: Optional[threading.Thread] = None
        self._exposition = None
        self._reuseport_sock: Optional[socket.socket] = None
        self._shared_data_port: Optional[int] = None
        self.restarts_total = 0

    # ------------------------------------------------------------ addressing

    @property
    def control_address(self) -> Tuple[str, int]:
        if self._control is None:
            raise RuntimeError("supervisor is not started")
        return self._control.server_address[:2]

    @property
    def metrics_address(self) -> Tuple[str, int]:
        if self._exposition is None:
            raise RuntimeError("fleet metrics sidecar is not running")
        return self._exposition.host, self._exposition.port

    def assignment(self) -> Dict[str, int]:
        """Sketch name -> owning worker index (whole fleet for share-all)."""
        if self.config.shard_by == "name":
            return sharding.assign(self.sketch_names, self.config.workers)
        return {}

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "Supervisor":
        if self._started_at is not None:
            raise RuntimeError("supervisor is already started")
        self._started_at = time.monotonic()
        if self.config.shard_by == "none":
            self._reserve_shared_port()
        for worker in self._workers:
            self._spawn(worker)
        deadline = time.monotonic() + self.config.spawn_timeout_s
        for worker in self._workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not worker.ready.wait(remaining):
                self.stop(drain=False)
                raise RuntimeError(
                    f"worker {worker.index} did not report readiness within "
                    f"{self.config.spawn_timeout_s:g}s")
        self._start_control()
        if self.config.metrics_port is not None:
            from repro.obs.expo import ExpositionServer

            self._exposition = ExpositionServer(
                snapshot_provider=self.fleet_snapshot,
                status_provider=self.fleet_statusz,
                host=self.config.host,
                port=self.config.metrics_port,
            ).start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True)
        self._monitor.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """SIGTERM the fleet and wait for it to drain; returns cleanliness.

        Each worker runs its own graceful drain on SIGTERM (up to its
        ``--drain-s``), so the fleet-wide drain budget defaults to
        ``drain_s`` plus a scheduling margin.  Workers still alive after
        the budget are SIGKILLed (and the drain reported unclean).
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(5.0)
            self._monitor = None
        budget = timeout if timeout is not None else self.config.drain_s + 5.0
        clean = True
        with self._lock:
            live = [w for w in self._workers if w.proc is not None
                    and w.proc.poll() is None]
            for worker in live:
                try:
                    worker.proc.send_signal(
                        signal.SIGTERM if drain else signal.SIGKILL)
                except OSError:
                    pass
        deadline = time.monotonic() + budget
        for worker in live:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                worker.proc.wait(remaining)
            except subprocess.TimeoutExpired:
                clean = False
                worker.proc.kill()
                worker.proc.wait(5.0)
            worker.state = "stopped"
        if self._control is not None:
            self._control.shutdown()
            self._control.server_close()
            if self._control_thread is not None:
                self._control_thread.join(5.0)
            self._control = None
            self._control_thread = None
        if self._exposition is not None:
            self._exposition.stop()
            self._exposition = None
        if self._reuseport_sock is not None:
            self._reuseport_sock.close()
            self._reuseport_sock = None
        return clean

    # ------------------------------------------------------------- spawning

    def _reserve_shared_port(self) -> None:
        """Hold the share-all data port open (bound, never listening).

        Workers bind the same port with ``SO_REUSEPORT`` and *listen*;
        the kernel only balances across listening sockets, so this one
        merely pins the port number for the supervisor's lifetime.
        """
        if not hasattr(socket, "SO_REUSEPORT"):
            self._shared_data_port = None  # per-worker ports; pool balances
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, self.config.worker_port))
        self._reuseport_sock = sock
        self._shared_data_port = sock.getsockname()[1]

    def _worker_argv(self, worker: WorkerState) -> List[str]:
        python = self.config.python or sys.executable
        argv = [python, "-m", "repro", "serve", *self.specs,
                "--host", self.config.host,
                "--metrics-port", "0",
                "--shard-index", str(worker.index),
                "--shard-count", str(self.config.workers),
                "--shard-by", self.config.shard_by,
                "--drain-s", str(self.config.drain_s)]
        if self.config.shard_by == "none" and self._shared_data_port:
            argv += ["--port", str(self._shared_data_port), "--reuse-port"]
        else:
            argv += ["--port", "0"]
        argv += list(self.config.worker_args)
        return argv

    def _worker_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # `-m repro` must resolve in the child even when the supervisor
        # itself was imported off a path not exported to the environment.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def _spawn(self, worker: WorkerState) -> None:
        with self._lock:
            worker.state = "starting"
            worker.ready.clear()
            worker.host = worker.port = None
            worker.metrics_host = worker.metrics_port = None
            if self.config.shard_by == "name":
                worker.sketches = sharding.shard_names(
                    self.sketch_names, worker.index, self.config.workers)
            else:
                worker.sketches = list(self.sketch_names)
            worker.proc = subprocess.Popen(
                self._worker_argv(worker),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=self._worker_env())
        reader = threading.Thread(
            target=self._read_worker_output, args=(worker, worker.proc),
            name=f"repro-worker-{worker.index}-out", daemon=True)
        reader.start()

    def _read_worker_output(self, worker: WorkerState,
                            proc: subprocess.Popen) -> None:
        """Parse readiness lines, then keep forwarding the worker's log."""
        for line in proc.stdout:
            match = _SERVE_RE.search(line)
            if match:
                with self._lock:
                    worker.host = match.group(1)
                    worker.port = int(match.group(2))
            match = _TELEMETRY_RE.search(line)
            if match:
                with self._lock:
                    worker.metrics_host = match.group(1)
                    worker.metrics_port = int(match.group(2))
            with self._lock:
                if (worker.state == "starting" and worker.port is not None
                        and worker.metrics_port is not None):
                    worker.state = "up"
                    worker.started_at = time.monotonic()
                    self._version += 1
                    get_metrics().gauge("fleet.workers.up").set(
                        sum(1 for w in self._workers if w.state == "up"))
                    worker.ready.set()
            print(f"[worker {worker.index}] {line.rstrip()}", flush=True)
        proc.stdout.close()

    # ------------------------------------------------------------ monitoring

    def _monitor_loop(self) -> None:
        """Detect worker deaths; restart with capped exponential backoff."""
        while not self._stopping.wait(0.05):
            now = time.monotonic()
            with self._lock:
                for worker in self._workers:
                    if worker.state in ("starting", "up"):
                        if worker.proc is not None \
                                and worker.proc.poll() is not None:
                            self._on_worker_death(worker, now)
                    elif worker.state == "backoff":
                        if worker.restart_due is not None \
                                and now >= worker.restart_due:
                            worker.restart_due = None
                            worker.restarts += 1
                            self.restarts_total += 1
                            get_metrics().counter("fleet.restarts").inc()
                            self._spawn(worker)

    def _on_worker_death(self, worker: WorkerState, now: float) -> None:
        returncode = worker.proc.returncode
        uptime = (now - worker.started_at
                  if worker.started_at is not None else 0.0)
        if uptime >= self.config.backoff_reset_s:
            worker.consecutive_failures = 0
        backoff = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** worker.consecutive_failures))
        worker.consecutive_failures += 1
        worker.last_backoff_s = backoff
        worker.state = "backoff"
        worker.restart_due = now + backoff
        self._version += 1
        metrics = get_metrics()
        metrics.counter("fleet.worker_exits").inc()
        metrics.gauge("fleet.workers.up").set(
            sum(1 for w in self._workers if w.state == "up"))
        print(f"[supervisor] worker {worker.index} "
              f"(pid {worker.pid}) exited with {returncode} after "
              f"{uptime:.2f}s; restarting in {backoff:.2f}s", flush=True)

    # ---------------------------------------------------------- control plane

    def shard_map(self) -> Dict[str, Any]:
        """The document pooled clients route by (also: the fleet roster)."""
        with self._lock:
            return {
                "version": self._version,
                "shard_by": self.config.shard_by,
                "replicas": sharding.DEFAULT_REPLICAS,
                "shard_count": self.config.workers,
                "sketches": self.sketch_names,
                "assignment": self.assignment(),
                "workers": [w.info() for w in self._workers],
            }

    def fleet_stats(self) -> Dict[str, Any]:
        """Worker roster plus the merged per-worker metrics snapshots."""
        with self._lock:
            workers = [w.info() for w in self._workers]
            targets = [(w.metrics_host, w.metrics_port)
                       for w in self._workers
                       if w.state == "up" and w.metrics_port is not None]
        snapshots = [fetch_snapshot(host, port) for host, port in targets]
        return {
            "uptime_s": (time.monotonic() - self._started_at
                         if self._started_at is not None else 0.0),
            "restarts_total": self.restarts_total,
            "workers": workers,
            "metrics": merge_snapshots(snapshots),
        }

    def fleet_snapshot(self) -> Dict[str, Any]:
        """The aggregated registry snapshot behind the fleet ``/metrics``.

        Workers' snapshots are merged (:mod:`repro.obs.fleet`) with the
        supervisor's own registry (the ``fleet.*`` instruments), so one
        scrape covers the tier.
        """
        with self._lock:
            targets = [(w.metrics_host, w.metrics_port)
                       for w in self._workers
                       if w.state == "up" and w.metrics_port is not None]
        snapshots: List[Optional[Dict]] = [
            fetch_snapshot(host, port) for host, port in targets]
        snapshots.append(get_metrics().snapshot())
        return merge_snapshots(snapshots)

    def fleet_statusz(self) -> Dict[str, Any]:
        """The fleet ``/statusz``: roster, versions, restart history."""
        with self._lock:
            return {
                "role": "supervisor",
                "protocol": protocol.PROTOCOL_VERSION,
                "uptime_s": (time.monotonic() - self._started_at
                             if self._started_at is not None else 0.0),
                "shard_by": self.config.shard_by,
                "version": self._version,
                "restarts_total": self.restarts_total,
                "workers": [w.info() for w in self._workers],
            }

    def _start_control(self) -> None:
        supervisor = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                while True:
                    try:
                        line = self.rfile.readline(protocol.MAX_LINE_BYTES + 1)
                    except OSError:
                        return
                    if not line:
                        return
                    if not line.strip():
                        continue
                    try:
                        self.wfile.write(
                            supervisor._handle_control_line(line))
                        self.wfile.flush()
                    except OSError:
                        return

        class ControlServer(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._control = ControlServer(
            (self.config.host, self.config.port), Handler)
        self._control_thread = threading.Thread(
            target=self._control.serve_forever,
            name="repro-supervisor-control", daemon=True)
        self._control_thread.start()

    def _handle_control_line(self, line: bytes) -> bytes:
        get_metrics().counter("fleet.control.requests").inc()
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            data, _ = protocol.encode_response(
                protocol.error_response(None, exc.code, exc.message))
            return data
        op = request["op"]
        try:
            if op == "health":
                with self._lock:
                    up = sum(1 for w in self._workers if w.state == "up")
                response = protocol.ok_response(
                    request, status="ok", role="supervisor",
                    protocol=protocol.PROTOCOL_VERSION,
                    sketches=self.sketch_names,
                    workers_up=up,
                    uptime_s=(time.monotonic() - self._started_at
                              if self._started_at is not None else 0.0))
            elif op == "shard_map":
                response = protocol.ok_response(request, **self.shard_map())
            elif op == "fleet_stats":
                response = protocol.ok_response(request, **self.fleet_stats())
            else:
                response = protocol.error_response(
                    request, "unknown_op",
                    f"op {op!r} is not served by the supervisor control "
                    "endpoint; data ops go to the workers (fetch shard_map)")
        except Exception as exc:  # noqa: BLE001 - fail the request, not the tier
            response = protocol.error_response(
                request, "internal", f"{type(exc).__name__}: {exc}")
        data, _ = protocol.encode_response(response)
        return data
