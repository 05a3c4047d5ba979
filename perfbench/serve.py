"""The ``serve-mixed`` workload: a closed loop against ``python -m repro serve``.

One *round* starts a server with fresh state and cache directories, waits
for ``/v1/health``, and lets each client thread work through its seeded
task list.  A client sends its next request only when the previous one is
answered (a closed loop).  Each task is one novel single-cell spec, sent
as one job of each of the four kinds the service tells apart:

* ``novel``, the spec itself, which the server has to simulate;
* ``dedup``, the same spec again at once, while the first is in flight,
  so it attaches to it;
* ``store``, once both are answered: an exact repeat, answered from the
  result store;
* ``overlap``: the same cell under a different glob, a new content hash
  whose cell is already in the cell cache.

The repository holds no recorded service traffic, so this mix is an
assumption, not a measurement: the smallest one that takes every one of
the four paths once per task.

Latency runs from sending the submit to holding result bytes whose SHA-256
matches the ``X-Repro-Sha256`` header.  Every document is also checked
against ``results/`` by the gate.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Status polls of a queued job start this far apart and back off by
#: doubling up to POLL_MAX_S, so a job answered from the cell cache is seen
#: within milliseconds without a novel job drawing a poll every few.
POLL_S = 0.002
POLL_MAX_S = 0.02
#: A round that is not done by then is failed (the run must end in time).
ROUND_TIMEOUT_S = 90.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Client:
    """One closed-loop client over plain HTTP/1.1 to localhost."""

    def __init__(self, port: int, name: str) -> None:
        self.port = port
        self.name = name
        self.status_ms: List[float] = []
        self.result_ms: List[float] = []

    def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, Dict[str, str], bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        status, _headers, body = self.request("POST", "/v1/jobs", spec)
        if status not in (200, 202):
            raise RuntimeError(f"submit returned HTTP {status}: {body[:200]!r}")
        return json.loads(body)

    def wait(self, job_id: str) -> Dict[str, Any]:
        pause = POLL_S
        while True:
            start = time.perf_counter()
            status, _headers, body = self.request("GET", f"/v1/jobs/{job_id}")
            self.status_ms.append(1000 * (time.perf_counter() - start))
            if status != 200:
                raise RuntimeError(f"status poll returned HTTP {status}")
            document = json.loads(body)
            if document["state"] in ("done", "failed"):
                return document
            time.sleep(pause)
            pause = min(2 * pause, POLL_MAX_S)

    def fetch(self, content_hash: str, expected_sha: Optional[str]) -> bytes:
        """The result bytes, verified against the header and the job."""
        start = time.perf_counter()
        status, headers, body = self.request("GET", f"/v1/results/{content_hash}")
        self.result_ms.append(1000 * (time.perf_counter() - start))
        if status != 200:
            raise RuntimeError(f"result fetch returned HTTP {status}")
        digest = hashlib.sha256(body).hexdigest()
        header = {k.lower(): v for k, v in headers.items()}.get("x-repro-sha256")
        if digest != header or (expected_sha is not None and digest != expected_sha):
            raise RuntimeError(
                f"result {content_hash[:12]} sha256 {digest[:12]} does not match"
                f" header {str(header)[:12]} / job {str(expected_sha)[:12]}"
            )
        return body


class Session:
    """One client's jobs in a round and their records.

    A record is one job: an attempted operation, failed when its
    ``problems`` list is not empty.
    """

    def __init__(self, client: Client, tasks: List[Dict[str, str]], reference) -> None:
        self.client = client
        self.tasks = tasks
        self.reference = reference
        self.records: List[dict] = []

    def submit(self, kind: str, ident: str, spec: Dict[str, Any]):
        """Send one submit; returns (start time, answer, record)."""
        record = {"kind": kind, "ident": ident, "problems": []}
        self.records.append(record)
        start = time.perf_counter()
        try:
            return start, self.client.submit(spec), record
        except (RuntimeError, OSError, ValueError) as error:
            record["problems"].append(str(error))
            return start, None, record

    def finish(self, sent) -> Optional[bytes]:
        """Wait for a submitted job, fetch and check its document."""
        start, answer, record = sent
        if answer is None:
            return None
        record["disposition"] = answer.get("disposition")
        try:
            status = None
            if answer.get("disposition") != "cached":
                status = self.client.wait(answer["job_id"])
                record.update(
                    created=status.get("created"),
                    started=status.get("started"),
                    finished=status.get("finished"),
                )
                if status["state"] != "done":
                    raise RuntimeError(f"job ended {status['state']}: {status.get('error')}")
            body = self.client.fetch(
                answer["content_hash"], (status or answer).get("result_sha256")
            )
            record["latency_ms"] = 1000 * (time.perf_counter() - start)
            record["problems"].extend(
                self.reference.check_cell(record["ident"], json.loads(body)["result"][0])
            )
            return body
        except Exception as error:  # noqa: BLE001 - any failure fails the job
            record["problems"].append(f"{record['kind']} {record['ident']}: {error!r}")
            return None

    @staticmethod
    def compare(sent, body: Optional[bytes], original: Optional[bytes], same_bytes: bool) -> None:
        """A repeat must be the original's bytes, an overlap its cell."""
        if original is None or body is None:
            return
        if same_bytes:
            ok = body == original
        else:
            ok = json.loads(body)["result"] == json.loads(original)["result"]
        if not ok:
            record = sent[2]
            record["problems"].append(
                f"{record['ident']}: {'repeated' if same_bytes else 'overlapping'}"
                " spec served a different result"
            )

    def spec(self, task: Dict[str, str], glob: str) -> Dict[str, Any]:
        return {"experiment": task["experiment"], "filters": [glob], "client": self.client.name}

    def run(self) -> None:
        """Thread body: a crash is recorded as a failed job, never lost."""
        try:
            for task in self.tasks:
                self.one_task(task)
        except Exception as error:  # noqa: BLE001
            self.records.append({"kind": "crash", "ident": self.client.name, "problems": [
                f"{self.client.name} crashed: {error!r}"
            ]})

    def one_task(self, task: Dict[str, str]) -> None:
        """The novel spec with a duplicate in flight, then a repeat and an overlap."""
        ident = task["ident"]
        first = self.submit("novel", ident, self.spec(task, ident))
        duplicate = self.submit("dedup", ident, self.spec(task, ident))
        original = self.finish(first)
        self.compare(duplicate, self.finish(duplicate), original, same_bytes=True)
        repeat = self.submit("store", ident, self.spec(task, ident))
        self.compare(repeat, self.finish(repeat), original, same_bytes=True)
        overlap = self.submit("overlap", ident, self.spec(task, ident[:-1] + "?"))
        self.compare(overlap, self.finish(overlap), original, same_bytes=False)


def start_server(
    root: Path, workdir: Path, spans_out: Optional[Path], pin: Optional[List[int]] = None
) -> Tuple[subprocess.Popen, int, Tuple[float, float]]:
    """Spawn a fresh server, pinned to the CPUs ``pin`` if given; returns
    it, its port and the monotonic window from spawn to healthy."""
    port = free_port()
    args = [
        "--port", str(port),
        "--state-dir", str(workdir / "state"),
        "--cache-dir", str(workdir / "cache"),
        "--quiet",
    ]
    if spans_out is None:
        command = [sys.executable, "-m", "repro", "serve", *args]
    else:
        launcher = Path(__file__).resolve().parent / "serve_launcher.py"
        command = [sys.executable, str(launcher), str(spans_out), *args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(workdir / "server.err", "wb") as errors:
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=errors,
            preexec_fn=None if pin is None else (lambda: os.sched_setaffinity(0, pin)),
        )
    client = Client(port, "health")
    deadline = spawned + 60
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with code {process.returncode}")
        try:
            if client.request("GET", "/v1/health")[0] == 200:
                return process, port, (spawned, time.monotonic())
        except OSError:
            pass
        time.sleep(0.005)
    stop_server(process)
    raise RuntimeError("server never became healthy")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def stop_server(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def run_round(
    root: Path, workdir: Path, plan, reference,
    spans_out: Optional[Path] = None, pin: Optional[List[int]] = None,
) -> dict:
    """One fresh server, every client's task list, then shutdown."""
    workdir.mkdir(parents=True, exist_ok=True)
    process, port, setup_window = start_server(root, workdir, spans_out, pin)
    try:
        sessions = [
            Session(Client(port, f"client-{index}"), tasks, reference)
            for index, tasks in enumerate(plan)
        ]
        threads = [threading.Thread(target=session.run) for session in sessions]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(ROUND_TIMEOUT_S)
        end = time.monotonic()
        metrics = json.loads(sessions[0].client.request("GET", "/v1/metrics")[2])
        rss = peak_rss_mb(process.pid)
    finally:
        stop_server(process)
    flat = [record for session in sessions for record in session.records]
    if any(thread.is_alive() for thread in threads):
        flat.append({"kind": "crash", "ident": "round", "problems": [
            "a client did not finish its tasks in time"
        ]})
    return {
        "setup_s": setup_window[1] - setup_window[0],
        "setup_window": setup_window,
        "wall_s": end - start,
        "window": (start, end),
        "records": flat,
        "problems": [p for record in flat for p in record["problems"]],
        "failed": sum(1 for record in flat if record["problems"]),
        "status_ms": [ms for session in sessions for ms in session.client.status_ms],
        "result_ms": [ms for session in sessions for ms in session.client.result_ms],
        "metrics": metrics,
        "peak_rss_mb": rss,
    }
