"""Bench: submit-path latency of the sweep daemon's admission control.

Writes ``benchmarks/out/BENCH_service_admission.json`` — p50/p99 of
the POST /sweeps round trip in the two admission regimes:

* **accept** — the pending queue has headroom; the submit pays for
  spec validation, the coalescing scan, and the durable job store's
  fsync before the 202 comes back.
* **reject** — the queue is at ``max_pending``; the submit is shed
  with 429 + ``Retry-After`` *before* any durable write, so shedding
  must be cheap precisely when the daemon is busiest.
"""

from __future__ import annotations

import json
import time

from conftest import write_artifact
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    SweepRequest,
)

#: Fast ATPG knobs: bench the service path, not PODEM.
FAST_ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
             "abort_recovery_blocks": 4, "second_chance_factor": 1}
SCALE = 0.012
SAMPLES = 40


def _request(i, tp_percents):
    # Distinct names keep the specs distinct: no submit coalesces, so
    # every sample pays the full admission + store-fsync path.
    return SweepRequest(circuit="s38417", scale=SCALE,
                        tp_percents=tp_percents,
                        options={"atpg": FAST_ATPG},
                        name=f"admission-{i}")


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       int(round(q * (len(ordered) - 1))))]


def _occupy_worker(client):
    """Park the single job worker on a long sweep and wait until the
    queue is empty again (the blocker has been dequeued)."""
    blocker = client.submit(_request("blocker", (0.0, 1.0, 2.0, 3.0)))
    while client.status(blocker.id)["state"] == "queued":
        time.sleep(0.01)
    return blocker


def _measure_accepts(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path / "accept"),
                           job_workers=1, max_pending=SAMPLES + 8)
    latencies = []
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0,
                               retries=0)
        _occupy_worker(client)
        accepted = []
        for i in range(SAMPLES):
            request = _request(i, (5.0,))
            t0 = time.perf_counter()
            record = client.submit(request)
            latencies.append(time.perf_counter() - t0)
            accepted.append(record.id)
        for job_id in accepted:    # nothing queued actually runs
            client.cancel(job_id)
    return latencies


def _measure_rejects(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path / "reject"),
                           job_workers=1, max_pending=1)
    latencies = []
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0,
                               retries=0)
        _occupy_worker(client)
        filler = client.submit(_request("filler", (4.0,)))  # queue full
        for i in range(SAMPLES):
            wire = _request(i, (5.0,)).to_wire()
            t0 = time.perf_counter()
            status, _payload, retry_after = client._request_once(
                "POST", "/sweeps", body=wire)
            latencies.append(time.perf_counter() - t0)
            assert status == 429, status
            assert retry_after is not None and retry_after >= 1
        client.cancel(filler.id)
    return latencies


def test_service_admission_latency(tmp_path, out_dir):
    accept = _measure_accepts(tmp_path)
    reject = _measure_rejects(tmp_path)

    latency = {
        "submit_accept_p50": _percentile(accept, 0.50),
        "submit_accept_p99": _percentile(accept, 0.99),
        "submit_reject_p50": _percentile(reject, 0.50),
        "submit_reject_p99": _percentile(reject, 0.99),
    }
    # Sanity, deliberately loose (CI machines are noisy): the whole
    # submit path — fsync included — stays well under a second, and
    # shedding is never an order of magnitude dearer than accepting.
    assert latency["submit_accept_p99"] < 1.0, latency
    assert latency["submit_reject_p99"] < 1.0, latency

    record = {"scale": SCALE, "samples": SAMPLES, "latency_s": latency}
    write_artifact(out_dir, "BENCH_service_admission.json",
                   json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"admission latency over {SAMPLES} samples: "
          f"accept p50={latency['submit_accept_p50'] * 1e3:.2f}ms "
          f"p99={latency['submit_accept_p99'] * 1e3:.2f}ms | "
          f"reject p50={latency['submit_reject_p50'] * 1e3:.2f}ms "
          f"p99={latency['submit_reject_p99'] * 1e3:.2f}ms")
