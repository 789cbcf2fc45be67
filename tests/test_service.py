"""End-to-end tests for the sweep-serving daemon.

The daemon boots for real on a localhost ephemeral port
(:class:`~repro.service.server.ServiceThread`) and every interaction
goes over actual HTTP through :class:`~repro.service.client.ServiceClient`
— no mocked transport, so these tests cover the hand-rolled HTTP
parsing, the JSON codecs, the job queue and the executor underneath in
one piece.

The headline assertions are the service's two contracts:

* **Byte identity** — a sweep computed by the daemon has exactly the
  same canonical result bytes as the same sweep computed in-process by
  :func:`repro.api.sweep`.
* **Shared-cache dedup** — two clients submitting the same spec
  concurrently coalesce onto one computation: the second job is served
  entirely from the shared artifact cache, and ``/metrics`` shows the
  cache hits.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import api, obs
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
    SweepRequest,
)
from repro.service.protocol import canonical_result_bytes
from tests.conftest import prom_samples, prom_value

#: Cheap ATPG knobs, matching tests/test_executor.py's FAST_ATPG.
ATPG = {"seed": 7, "backtrack_limit": 24, "max_deterministic": 60,
        "abort_recovery_blocks": 4, "second_chance_factor": 1}
SCALE = 0.012
OPTIONS = {"atpg": ATPG}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service_cache")
    with ServiceThread(ServiceConfig(port=0, cache_dir=str(cache_dir),
                                     job_workers=2)) as thread:
        yield thread


@pytest.fixture(scope="module")
def client(daemon):
    return ServiceClient(daemon.base_url, timeout_s=10.0)


def submit(client, tp_percents, **overrides):
    request = SweepRequest(circuit="s38417", scale=SCALE,
                           tp_percents=tp_percents, options=OPTIONS,
                           **overrides)
    return client.submit(request)


# ----------------------------------------------------------------------
# Liveness and metrics
# ----------------------------------------------------------------------
def test_healthz(client):
    payload = client.healthz()
    assert payload["status"] == "ok"
    assert payload["job_workers"] == 2
    assert payload["uptime_s"] >= 0


#: Every family of the ``/metrics`` exposition and its TYPE.  The
#: daemon declares them all at boot, so even an idle scrape has them.
METRIC_TYPES = {
    "repro_cache_events_total": "counter",
    "repro_cache_hit_rate": "gauge",
    "repro_cache_write_failures_total": "counter",
    "repro_cell_seconds": "histogram",
    "repro_cells_total": "counter",
    "repro_degraded": "gauge",
    "repro_draining": "gauge",
    "repro_job_queue_depth": "gauge",
    "repro_job_queue_wait_seconds": "histogram",
    "repro_job_seconds": "histogram",
    "repro_job_workers": "gauge",
    "repro_jobs_total": "counter",
    "repro_journal_torn_lines_total": "counter",
    "repro_request_seconds": "histogram",
    "repro_running_jobs": "gauge",
    "repro_stage_seconds": "histogram",
    "repro_store_torn_lines_total": "counter",
    "repro_task_retries_total": "counter",
    "repro_task_timeouts_total": "counter",
    "repro_uptime_seconds": "gauge",
    "repro_worker_crashes_total": "counter",
    "repro_worker_utilization": "gauge",
}


def metric_types(text):
    """``{family: TYPE}`` from a scrape's ``# TYPE`` lines."""
    return dict(line.split(" ")[2:4] for line in text.splitlines()
                if line.startswith("# TYPE "))


def series_label_sets(text):
    """``{family: {label items}}`` of a scrape, ``le`` left out, with
    a histogram's ``_bucket``/``_sum``/``_count`` folded into its
    family."""
    types = metric_types(text)
    series = {}
    for name, labels, _ in prom_samples(text):
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[:-len(suffix)]
            if name.endswith(suffix) and types.get(base) == "histogram":
                name = base
        labels.pop("le", None)
        series.setdefault(name, set()).add(tuple(sorted(labels.items())))
    return series


def test_metrics_shape(client):
    assert metric_types(client.metrics_prom()) == METRIC_TYPES


#: The series the scripted job mix below leaves in the exposition
#: (``le`` aside), captured before ``/metrics`` dropped its JSON view:
#: dropping it must not change the exposition.
STAGES = ("atpg", "eco_cts_route", "extraction", "floorplan_place",
          "scan_reorder", "sta", "tpi_scan")
MIX_SERIES = {
    **{family: {()} for family, kind in METRIC_TYPES.items()
       if kind == "gauge"},
    "repro_cache_events_total": {(("event", event),) for event in
                                 ("corrupt", "evict", "hit", "miss")},
    "repro_cell_seconds": {(("circuit", "s38417"),)},
    "repro_cells_total": {(("circuit", "s38417"), ("outcome", "ok"))},
    "repro_job_queue_wait_seconds": {()},
    "repro_job_seconds": {()},
    "repro_jobs_total": {(("event", event),) for event in
                         ("cancelled", "coalesced", "completed",
                          "expired", "rejected", "submitted")},
    "repro_request_seconds": {(("route", "metrics"),),
                              (("route", "sweeps"),)},
    "repro_stage_seconds": {(("circuit", "s38417"), ("stage", stage))
                            for stage in STAGES},
}


def test_scripted_job_mix_counts_in_prometheus_series(tmp_path):
    """Script one of each job outcome, then read every count from the
    exposition's series."""
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1, max_pending=2)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0,
                               retries=0)
        assert prom_value(client.metrics_prom(), "repro_jobs_total") == 0
        blocker = submit(client, (0.8, 1.8))                  # completes
        deadline = time.monotonic() + 120
        while client.status(blocker.id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        twin = submit(client, (0.8, 1.8))                     # coalesced
        doomed = submit(client, (2.8,), deadline_s=0.01)      # expires
        with pytest.raises(ServiceError) as err:              # 429
            submit(client, (3.8,))
        assert err.value.status == 429
        client.cancel(twin.id)                                # queued
        assert client.wait(blocker.id, timeout_s=300)["state"] == "done"
        assert client.wait(doomed.id, timeout_s=300)["state"] \
            == "cancelled"
        text = client.metrics_prom()

    assert obs.validate_exposition(text) == []
    assert metric_types(text) == METRIC_TYPES
    assert series_label_sets(text) == MIX_SERIES

    def jobs(event):
        return prom_value(text, "repro_jobs_total", event=event)

    assert jobs("submitted") == 3
    assert jobs("coalesced") == 1
    assert jobs("rejected") == 1
    assert jobs("cancelled") == 2     # the twin and the expiry
    assert jobs("expired") == 1
    assert jobs("completed") == 1
    assert (prom_value(text, "repro_cells_total", outcome="ok")
            + prom_value(text, "repro_cells_total", outcome="cached")) == 2
    assert prom_value(text, "repro_cache_events_total",
                      event="miss") == 2


# ----------------------------------------------------------------------
# The byte-identity contract
# ----------------------------------------------------------------------
def test_daemon_result_is_byte_identical_to_api_sweep(client):
    levels = (0.0, 2.0)
    record = submit(client, levels)
    final = client.wait(record.id, timeout_s=300)
    assert final["state"] == "done"
    assert final["progress"]["done"] == len(levels)
    assert final["progress"]["finished"]

    report = client.result(record.id)
    served = report.results["s38417"]

    local = api.sweep("s38417", scale=SCALE, tp_percents=levels,
                      **OPTIONS)
    assert (canonical_result_bytes(served)
            == canonical_result_bytes(local))
    # The decoded result quacks like api.sweep's: same tables.
    assert served.table1_rows() == local.table1_rows()
    assert served.table2_rows() == local.table2_rows()
    assert served.table3_rows() == local.table3_rows()


# ----------------------------------------------------------------------
# Shared-cache dedup between concurrent tenants
# ----------------------------------------------------------------------
def test_concurrent_identical_submissions_dedup(daemon, client):
    levels = (1.0, 3.0)  # fresh levels: cold cache for this spec
    before = client.metrics_prom()

    second_client = ServiceClient(daemon.base_url, timeout_s=10.0)
    first = submit(client, levels)
    second = submit(second_client, levels)

    # The daemon spotted the identical in-flight spec at submit time.
    assert second.coalesced_with == first.id

    done = {}

    def wait_for(client_, record, slot):
        done[slot] = client_.wait(record.id, timeout_s=300)

    threads = [
        threading.Thread(target=wait_for, args=(client, first, "a")),
        threading.Thread(target=wait_for,
                         args=(second_client, second, "b")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert done["a"]["state"] == "done"
    assert done["b"]["state"] == "done"

    report_a = client.result(first.id)
    report_b = second_client.result(second.id)
    assert (canonical_result_bytes(report_a.results["s38417"])
            == canonical_result_bytes(report_b.results["s38417"]))

    # One of the twins computed; the coalesced one was served entirely
    # from the shared artifact cache.
    assert all(run.from_cache
               for run in report_b.results["s38417"].runs.values())
    assert report_b.cache_hits == len(levels)

    after = client.metrics_prom()
    assert (prom_value(after, "repro_jobs_total", event="coalesced")
            >= prom_value(before, "repro_jobs_total", event="coalesced")
            + 1)
    assert (prom_value(after, "repro_cache_events_total", event="hit")
            >= prom_value(before, "repro_cache_events_total", event="hit")
            + len(levels))
    assert prom_value(after, "repro_cache_hit_rate") > 0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
def test_cancel_queued_job_is_immediate(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        running = submit(client, (0.5,))
        queued = submit(client, (1.5,))  # worker is busy: stays queued

        record = client.cancel(queued.id)
        assert record.state == "cancelled"
        # A cancelled-while-queued job has no result, by design.
        with pytest.raises(ServiceError) as err:
            client.result(queued.id)
        assert err.value.status == 409

        final = client.wait(running.id, timeout_s=300)
        assert final["state"] == "done"  # the healthy job is unharmed


def test_cancel_running_job_stops_scheduling_cells(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        import time

        record = submit(client, (0.25, 1.25, 2.25, 3.25))
        # Let it start, then cancel mid-sweep.
        while client.status(record.id)["state"] == "queued":
            time.sleep(0.02)
        cancelled = client.cancel(record.id)
        assert cancelled.state in ("running", "cancelled")

        final = client.wait(record.id, timeout_s=300)
        assert final["state"] == "cancelled"
        progress = final["progress"]
        # Cooperative contract: not every cell ran.
        assert progress["done"] < progress["total"]


def test_cancel_terminal_job_is_noop(client):
    record = submit(client, (0.0, 2.0))
    client.wait(record.id, timeout_s=300)
    after = client.cancel(record.id)
    assert after.state == "done"  # unchanged, not "cancelled"


# ----------------------------------------------------------------------
# client.sweep <-> api.sweep interchangeability
# ----------------------------------------------------------------------
def test_client_sweep_mirrors_api_sweep_contract(client):
    served = client.sweep("s38417", scale=SCALE,
                          tp_percents=(0.0, 2.0), options=OPTIONS,
                          timeout_s=300)
    local = api.sweep("s38417", scale=SCALE, tp_percents=(0.0, 2.0),
                      **OPTIONS)
    assert (canonical_result_bytes(served)
            == canonical_result_bytes(local))


# ----------------------------------------------------------------------
# HTTP error contract
# ----------------------------------------------------------------------
def test_unknown_circuit_is_rejected_with_400(client):
    with pytest.raises(ServiceError) as err:
        client.submit(SweepRequest(circuit="s99999"))
    assert err.value.status == 400
    assert "s99999" in str(err.value)


def test_unknown_request_key_is_rejected_with_400(client):
    status, payload = client._request(
        "POST", "/sweeps",
        body={"circuit": "s38417", "tp_percent": 2.0})
    assert status == 400
    assert "tp_percent" in payload["error"]


def test_malformed_json_body_is_rejected_with_400(daemon):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", daemon.service.port,
                                      timeout=10)
    try:
        conn.request("POST", "/sweeps", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in payload["error"]
    finally:
        conn.close()


def test_unknown_job_is_404(client):
    with pytest.raises(ServiceError) as err:
        client.status("jdoesnotexist")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.result("jdoesnotexist")
    assert err.value.status == 404


def test_unknown_route_is_404(client):
    status, _ = client._request("GET", "/nope")
    assert status == 404
    status, _ = client._request("GET", "/sweeps/x/result/extra")
    assert status == 404


def test_unknown_paths_share_one_request_series(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)

        def routes():
            return {labels["route"]: value
                    for name, labels, value
                    in prom_samples(client.metrics_prom())
                    if name == "repro_request_seconds_count"}

        before = routes()
        for n in range(5):
            status, _ = client._request("GET", f"/probe-{n}")
            assert status == 404
        after = routes()
    # The scrapes add route="metrics"; the five probes, one series.
    assert set(after) - set(before) - {"metrics"} == {"unmatched"}
    assert after["unmatched"] == 5


def test_malformed_request_fields_are_rejected_with_400(client):
    for field, value in (("task_timeout_s", "5"), ("scale", "big")):
        wire = SweepRequest(circuit="s38417", scale=SCALE,
                            tp_percents=(0.0,)).to_wire()
        wire[field] = value
        status, payload = client._request("POST", "/sweeps", body=wire)
        assert status == 400
        assert field in payload["error"]


def test_wrong_method_is_405(client):
    status, _ = client._request("DELETE", "/healthz")
    assert status == 405
    status, _ = client._request("POST", "/metrics")
    assert status == 405


def test_result_of_unfinished_job_is_409(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        blocker = submit(client, (0.75,))
        queued = submit(client, (1.75,))
        with pytest.raises(ServiceError) as err:
            client.result(queued.id)
        assert err.value.status == 409
        client.cancel(queued.id)
        client.wait(blocker.id, timeout_s=300)


def test_kill_chaos_with_single_job_worker_is_rejected(client):
    # Build the wire payload by hand (the dataclass wants a FaultPlan).
    wire = SweepRequest(circuit="s38417", scale=SCALE,
                        tp_percents=(0.0,), options=OPTIONS,
                        jobs=1).to_wire()
    wire["chaos"] = {"faults": [{"kind": "kill", "stage": "tpi_scan"}]}
    status, payload = client._request("POST", "/sweeps", body=wire)
    assert status == 400
    assert "jobs > 1" in payload["error"]


def test_job_listing_covers_submissions(client):
    records = client.jobs()
    assert len(records) >= 1
    assert all(r.id.startswith("j") for r in records)


# ----------------------------------------------------------------------
# Telemetry: Prometheus scrape, traces
# ----------------------------------------------------------------------
def test_prom_scrape_is_valid_and_has_stage_histogram(client):
    record = submit(client, (0.0, 2.0))  # warm cache: fast
    final = client.wait(record.id, timeout_s=300)
    assert final["state"] == "done"

    text = client.metrics_prom()
    assert obs.validate_exposition(text) == []
    # Per-stage latency histogram with stage labels, the headline
    # family the CI scrape job asserts on.
    assert "# TYPE repro_stage_seconds histogram" in text
    assert 'stage="atpg"' in text
    assert "repro_stage_seconds_bucket" in text
    assert 'le="+Inf"' in text
    # Queue/cache/job gauges sampled at scrape time.
    for family in ("repro_job_queue_depth", "repro_worker_utilization",
                   "repro_cache_hit_rate", "repro_uptime_seconds",
                   "repro_jobs_total"):
        assert family in text, family


def test_metrics_ignores_format_query_and_accept(daemon):
    import http.client

    def fetch(path, accept=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.service.port, timeout=10)
        try:
            headers = {"Connection": "close"}
            if accept:
                headers["Accept"] = accept
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            return (response.status,
                    response.getheader("Content-Type", ""),
                    response.read().decode("utf-8"))
        finally:
            conn.close()

    bodies = []
    for path, accept in (("/metrics", None),
                         ("/metrics?format=json", None),
                         ("/metrics?format=prom", None),
                         ("/metrics", "application/json")):
        status, ctype, body = fetch(path, accept)
        assert status == 200
        assert ctype == "text/plain; version=0.0.4; charset=utf-8"
        assert obs.validate_exposition(body) == []
        # Only what the scrapes themselves move may differ: the uptime
        # gauge and the request histogram of route="metrics".
        bodies.append([line for line in body.splitlines()
                       if not line.startswith("repro_uptime_seconds ")
                       and 'route="metrics"' not in line])
    assert all(lines == bodies[0] for lines in bodies)


def test_traced_job_yields_merged_chrome_trace(client):
    # Fresh levels: cache hits drop stored traces by design, so the
    # per-cell flow traces only exist when the cells really compute.
    record = submit(client, (0.33, 2.33), jobs=2, trace=True)
    final = client.wait(record.id, timeout_s=300)
    assert final["state"] == "done"

    merged = client.trace(record.id)
    assert obs.validate_chrome_trace(merged) == []
    events = merged["traceEvents"]
    # The job's own track (queue_wait + run) plus at least one worker
    # process: distinct virtual pids, stable from 1.
    pids = sorted({e["pid"] for e in events})
    assert pids[0] == 1 and len(pids) >= 2
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert {"queue_wait", "run"} <= names
    assert "atpg" in names  # per-cell stage spans rode along
    # Real pids preserved in track metadata.
    metas = [e for e in events
             if e.get("ph") == "M" and e["name"] == "process_name"]
    assert all("os_pid" in m["args"] for m in metas)


def test_untraced_job_still_has_job_level_trace(client):
    record = submit(client, (0.0,))
    client.wait(record.id, timeout_s=300)
    merged = client.trace(record.id)
    assert obs.validate_chrome_trace(merged) == []
    names = {e["name"] for e in merged["traceEvents"]
             if e.get("ph") == "X"}
    # Job lifecycle spans only — no per-cell stage spans.
    assert {"queue_wait", "run"} <= names
    assert "atpg" not in names


def test_stored_job_trace_is_the_chrome_trace_served(daemon, client,
                                                     capsys):
    from pathlib import Path

    from repro.cli import main

    record = submit(client, (0.0,), trace=True)
    assert client.wait(record.id, timeout_s=300)["state"] == "done"
    # The daemon writes one Chrome trace per job, at job end, and
    # serves that file's object as it is.
    path = (Path(daemon.service.config.cache_dir) / "traces"
            / f"{record.id}.trace.json")
    with open(path, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    assert obs.validate_chrome_trace(stored) == []
    assert main(["trace", "summarize", str(path)]) == 0
    assert "queue_wait" in capsys.readouterr().out
    assert client.trace(record.id) == stored


def test_trace_of_unknown_or_unfinished_job_is_404(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path),
                           job_workers=1)
    with ServiceThread(config) as thread:
        client = ServiceClient(thread.base_url, timeout_s=10.0)
        with pytest.raises(ServiceError) as err:
            client.trace("jdoesnotexist")
        assert err.value.status == 404

        blocker = submit(client, (0.75,))
        queued = submit(client, (1.75,))  # worker busy: stays queued
        with pytest.raises(ServiceError) as err:
            client.trace(queued.id)  # no trace before the job ran
        assert err.value.status == 404
        client.cancel(queued.id)
        client.wait(blocker.id, timeout_s=300)


def test_report_carries_wall_and_monotonic_stamps(client):
    record = submit(client, (0.0, 2.0))
    client.wait(record.id, timeout_s=300)
    report = client.result(record.id)
    assert report.started_at > 0 and report.finished_at >= (
        report.started_at)
    assert report.finished_mono >= report.started_mono > 0
    assert report.duration_s >= 0


def test_two_daemons_in_one_process_count_apart(tmp_path):
    """A daemon's cells and requests land in its own registry, not in
    that of whichever daemon started last."""
    def config(name):
        return ServiceConfig(port=0, cache_dir=str(tmp_path / name),
                             job_workers=1)

    with ServiceThread(config("first")) as first, \
            ServiceThread(config("second")) as second:
        client = ServiceClient(first.base_url, timeout_s=10.0)
        record = submit(client, (0.5,))
        assert client.wait(record.id, timeout_s=300)["state"] == "done"
        first_text = client.metrics_prom()
        second_text = ServiceClient(second.base_url,
                                    timeout_s=10.0).metrics_prom()

    assert prom_value(first_text, "repro_cells_total", outcome="ok") == 1
    # The submit and at least one status poll.
    assert prom_value(first_text, "repro_request_seconds_count",
                      route="sweeps") >= 2
    assert prom_value(second_text, "repro_cells_total") == 0
    assert prom_value(second_text, "repro_request_seconds_count") == 0
