"""The end-to-end benchmark's one command.

Full run — every workload untraced for the end-to-end metrics, then once
more traced for the per-layer ones, every output check, one result file:

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--out FILE] [--quick]

One workload, the way the benchmark driver calls it (last stdout line is
one JSON object):

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Agreement of two sets of result files, against the bounds:

    python -m benchmarks.e2e.run --compare A1.json,A2.json,A3.json B1.json,B2.json,B3.json

This process generates the inputs and, for ``serve_tcp``, is the load
generator; the system under test runs in a fresh child interpreter per
workload (``child.py``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent.parent
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{_ROOT}/src/repro not found: the benchmark measures the program next to it")
# run as a script, sys.path[0] is this directory, whose trace.py would
# shadow the standard library's
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _HERE]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from time import perf_counter  # noqa: E402

from benchmarks.e2e import config, inputs, report, stats  # noqa: E402
from benchmarks.e2e.layers import PER_LAYER  # noqa: E402

#: a child that has not finished by then is killed (the driver allows 180 s)
CHILD_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def prepare(workload: str, seed: int, sizes: dict, work: Path) -> dict:
    """Generate *workload*'s inputs into *work*.

    Returns the child's spec plus what the parent needs to judge the
    run: records offered, the DB's expected Σ match_count and the wire
    payload (``serve_tcp``).  The three ``steady``-fed workloads get the
    same lines because generation is a pure function of the seed.
    """
    spec = {
        "workload": workload,
        "sizes": sizes,
        "db_path": str(work / "patterns.db"),
        "measured_path": str(work / "measured.jsonl"),
        "spans_path": str(work / "spans.json"),
    }
    plan = {"spec": spec, "payload": None, "expected_total": None}
    if workload in config.STEADY_TRIO:
        prefix, measured = inputs.steady(seed, sizes["steady_prefix"], sizes["steady_measured"])
        spec["prefix_path"] = str(work / "prefix.jsonl")
        inputs.write_lines(Path(spec["prefix_path"]), prefix)
        inputs.write_lines(Path(spec["measured_path"]), measured)
        plan["offered"] = len(measured)
        plan["expected_total"] = len(prefix) + len(measured)
        if workload == "serve_tcp":
            plan["payload"] = ("\n".join(measured) + "\n").encode()
    elif workload == "cold_mine":
        lines = inputs.cold(seed, sizes["cold_rounds"], sizes["cold_per_round"])
        inputs.write_lines(Path(spec["measured_path"]), lines)
        plan["offered"] = len(lines)
    else:  # stream_drift
        days, labelled = inputs.drift(
            seed, sizes["drift_loghub_lines"], sizes["drift_prod_per_day"]
        )
        spec["day_lengths"] = [len(day) for day in days]
        spec["labelled_path"] = str(work / "labelled.jsonl")
        inputs.write_lines(Path(spec["measured_path"]), [l for day in days for l in day])
        inputs.write_lines(Path(spec["labelled_path"]), labelled)
        plan["offered"] = sum(spec["day_lengths"])
    return plan


# ----------------------------------------------------------------------
# one child run
# ----------------------------------------------------------------------

def _read_event(proc: subprocess.Popen, event: str) -> dict:
    """Next *event* line of the child's stdout (other output is echoed)."""
    for line in proc.stdout:
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            message = None
        if isinstance(message, dict) and message.get("event") == event:
            return message
        sys.stderr.write(line)
    raise RuntimeError(f"child exited (code {proc.wait()}) before {event!r}")


def _flood(payload: bytes, port: int, proc: subprocess.Popen) -> tuple[float, dict]:
    """One loopback TCP connection, 64 KiB ``sendall`` chunks, flow
    controlled by the server; returns the seconds spent inside sendall
    and the child's result."""
    blocked = 0.0
    view = memoryview(payload)
    with socket.create_connection(("127.0.0.1", port)) as conn:
        proc.stdin.write("go\n")
        proc.stdin.flush()
        for offset in range(0, len(view), config.SEND_CHUNK):
            began = perf_counter()
            conn.sendall(view[offset : offset + config.SEND_CHUNK])
            blocked += perf_counter() - began
        conn.shutdown(socket.SHUT_WR)
        proc.stdin.write(f"sent {payload.count(10)}\n")
        proc.stdin.flush()
        # hold the socket open until the child has drained
        result = _read_event(proc, "result")
    return blocked, result


def run_child(workload: str, seed: int, sizes: dict, trace: bool, spans_to: Path | None = None) -> dict:
    """Set up, run and tear down one workload in a fresh interpreter."""
    began = time.monotonic()
    config.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=config.OUT_DIR))
    proc = None
    try:
        plan = prepare(workload, seed, sizes, work)
        plan["spec"]["trace"] = trace
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(plan["spec"]))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.child", str(spec_path)],
            cwd=_ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = _read_event(proc, "ready")
            setup_s = time.monotonic() - began
            sender_blocked_s = None
            if workload == "serve_tcp":
                sender_blocked_s, result = _flood(plan["payload"], ready["port"], proc)
            else:
                proc.stdin.write("go\n")
                proc.stdin.flush()
                result = _read_event(proc, "result")
            proc.stdin.close()
            if proc.wait() != 0:
                raise RuntimeError(f"child exited with code {proc.returncode}")
        finally:
            watchdog.cancel()
        if trace and spans_to is not None:
            shutil.copyfile(plan["spec"]["spans_path"], spans_to)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    result.update(
        setup_s=setup_s,
        offered=plan["offered"],
        expected_total=plan["expected_total"],
        sender_blocked_s=sender_blocked_s,
    )
    return result


# ----------------------------------------------------------------------
# metrics and checks
# ----------------------------------------------------------------------

def end_to_end(run: dict) -> dict:
    samples = run["samples_ms"]
    tail_ms, percentile = stats.tail(samples)
    metrics = {
        "setup_s": {"value": run["setup_s"], "unit": "s"},
        "throughput_msgs_per_s": {"value": run["mined"] / run["elapsed_s"], "unit": "msgs/s"},
        "batch_ms_p50": {"value": statistics.median(samples), "unit": "ms", "n_samples": len(samples)},
        "batch_ms_tail": {
            "value": tail_ms,
            "unit": "ms",
            "n_samples": len(samples),
            "percentile": percentile,
        },
        "peak_rss_mb": {"value": run["rss_mb"], "unit": "MiB"},
        "failed_frac": {
            "value": (run["offered"] - run["mined"]) / run["offered"],
            "unit": "ratio",
        },
    }
    if "grouping_accuracy" in run:
        metrics["grouping_accuracy"] = {"value": run["grouping_accuracy"], "unit": "ratio"}
    return metrics


def failures(run: dict, full_scale: bool) -> list[str]:
    """Every output check of one run that did not hold."""
    out = []
    if run["mined"] != run["offered"]:
        out.append(f"{run['offered']} records offered, {run['mined']} mined")
    checks = run["checks"]
    if checks["examples_failed"]:
        out.append(
            f"{checks['examples_failed']} of {checks['examples_checked']} stored "
            "examples do not re-match their own pattern"
        )
    if run["expected_total"] is not None and checks["total_matches"] != run["expected_total"]:
        out.append(
            f"conservation: Σ match_count {checks['total_matches']} != "
            f"{run['expected_total']} records mined into the DB"
        )
    for index, rnd in enumerate(run.get("rounds", ())):
        if rnd["total_matches"] != rnd["offered"]:
            out.append(
                f"conservation, round {index}: Σ match_count {rnd['total_matches']} "
                f"!= {rnd['offered']} records"
            )
    if "stream" in run and full_scale:
        stream = run["stream"]
        if stream["flushes"] < 30:
            out.append(f"only {stream['flushes']} flushes (need >= 30)")
        for counter in ("drift_merges", "drift_splits", "evicted"):
            if stream[counter] <= 0:
                out.append(f"{counter} never happened")
    return out


def measure(workload: str, seed: int, sizes: dict, trace: bool, spans_dir: Path | None = None) -> dict:
    """One workload: the untraced pass, and with *trace* a traced pass
    whose wall is compared with it for ``trace.overhead_frac``."""
    full_scale = sizes["scale"] >= 1.0
    run = run_child(workload, seed, sizes, trace=False)
    record = {
        "end_to_end": end_to_end(run),
        "offered": run["offered"],
        "mined": run["mined"],
        "matched_frac": run["matched_frac"],
        "fingerprint": _fingerprint(run),
        "failures": failures(run, full_scale),
    }
    if "stream" in run:
        record["stream"] = run["stream"]
    if trace:
        spans_to = spans_dir / f"spans_{workload}.json" if spans_dir else None
        traced = run_child(workload, seed, sizes, trace=True, spans_to=spans_to)
        layers = traced["layers"]
        # both passes make the same mining calls on the same records: the
        # median of the call-by-call ratios shrugs off a noisy stretch of
        # either pass, which the ratio of the two walls does not
        layers["trace.overhead_frac"] = (
            statistics.median(
                [t / u for t, u in zip(traced["samples_ms"], run["samples_ms"])]
            )
            - 1.0
        )
        if traced["sender_blocked_s"] is not None:
            layers["serve.server.sender_blocked_s"] = traced["sender_blocked_s"]
        record["per_layer"] = {
            name: {"value": layers[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()
        }
        record["missing_proxies"] = traced["missing_proxies"]
        record["traced_wall_s"] = traced["elapsed_s"]  # the base of layer shares
        record["failures"] += [f"traced pass: {f}" for f in failures(traced, full_scale)]
        if _fingerprint(traced) != record["fingerprint"]:
            record["failures"].append("traced pass mined a different pattern DB")
    return record


def _fingerprint(run: dict) -> str:
    if "rounds" in run:
        return "+".join(rnd["fingerprint"] for rnd in run["rounds"])
    return run["checks"]["fingerprint"]


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def driver_line(record: dict, benchmark: dict, trace: bool) -> dict:
    """The one JSON object the driver reads (numbers only: a per-layer
    metric that does not apply to the workload reads 0)."""
    if trace:
        metrics = {
            m["name"]: {"value": record["per_layer"][m["name"]]["value"] or 0.0, "unit": m["unit"]}
            for m in benchmark["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": record["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    return {
        "correct": not record["failures"],
        "attempted": record["offered"],
        "failed": record["offered"] - record["mined"],
        "metrics": metrics,
    }


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: tells a slow box from a slow
    commit when reading two result files.  Never used to rescale."""
    began = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i % 7
    return perf_counter() - began


def header(seed: int, scale: float, quick: bool) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calib_s": calibrate(),
        "transport": "loopback",
        "comparable": not quick,
    }


def full_run(args) -> int:
    scale = config.QUICK_SCALE if args.quick else 1.0
    sizes = config.sizes(scale)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result = {"header": header(args.seed, scale, args.quick), "sizes": sizes, "workloads": {}}
    print(json.dumps(result["header"]))
    for workload in config.WORKLOADS:
        record = measure(workload, args.seed, sizes, trace=True, spans_dir=out.parent)
        result["workloads"][workload] = record
        report.print_workload(workload, record)
    reference = result["workloads"]["steady_file"]["fingerprint"]
    for workload in config.STEADY_TRIO:
        if result["workloads"][workload]["fingerprint"] != reference:
            result["workloads"][workload]["failures"].append(
                "pattern DB differs from steady_file's (the reference computation)"
            )
            print(f"CHECK FAILED: {workload} DB fingerprint differs from steady_file's")
    ok = not any(record["failures"] for record in result["workloads"].values())
    result["correct"] = ok
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nchecks {'passed' if ok else 'FAILED'}; result written to {out}")
    return 0 if ok else 1


def driver_run(args, benchmark: dict) -> int:
    scale = args.seconds / config.SECONDS_AT_SCALE_1
    record = measure(args.workload, args.seed, config.sizes(scale), trace=bool(args.trace))
    report.print_workload(args.workload, record)
    print(json.dumps(driver_line(record, benchmark, bool(args.trace))))
    return 0 if not record["failures"] else 1


def compare_run(args, benchmark: dict) -> int:
    side_a, side_b = (report.load_results(side.split(",")) for side in args.compare)
    rows, agree = report.compare(side_a, side_b, report.end_to_end_spec(benchmark))
    report.print_comparison(rows)
    return 0 if agree else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(config.OUT_DIR / "latest.json"))
    parser.add_argument("--quick", action="store_true", help="1/20 scale; not comparable")
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=config.SECONDS_AT_SCALE_1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the LogHub generator seeds value pools from hash(str): pin it,
        # for this process and the children it starts
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    benchmark = config.load_benchmark_json()
    if args.compare:
        return compare_run(args, benchmark)
    if args.workload:
        return driver_run(args, benchmark)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
