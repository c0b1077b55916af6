"""End-to-end, layer-by-layer benchmark of the sequence query engine.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload scan_memory --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of a timed run with tracing
off; ``--trace 1`` reports the per-layer metrics of a separate traced
run.  Every answer is checked against the naive evaluator.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program under test is
imported from the checkout's ``src`` directory only: without it the
benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("adhoc_small", "scan_memory", "scan_paged", "probe_paged")

#: Answer digests hash strings, and string hashes are randomized per
#: process unless ``PYTHONHASHSEED`` is fixed.  The benchmark and its
#: reference process must agree on it.
HASH_SEED = "0"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink the generated sequences (tests)"
    )
    parser.add_argument(
        "--references",
        action="store_true",
        help="print the reference answer digests as JSON and exit (internal)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seconds must be positive and --scale in (0, 1]")
    return args


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def _start_references(args) -> subprocess.Popen:
    """Start the child process that computes the reference digests.

    The naive evaluator's memory would otherwise set this process's
    peak RSS.  The child runs while this process generates its inputs,
    and is waited for before set-up starts.
    """
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--references",
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--scale={args.scale}",
    ]
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def _finish_references(child: subprocess.Popen) -> dict:
    try:
        out, err = child.communicate(timeout=150)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"error: reference process exited with {child.returncode}")
    return {key: tuple(value) for key, value in json.loads(out.splitlines()[-1]).items()}


def run(args, references=None) -> tuple[dict, dict]:
    """Run one workload; return (result, info).  Call after the import.

    Without ``references`` they are computed in a child process.
    """
    import e2e_inputs
    import e2e_measure
    from repro.model.batch import vector_backend

    child = _start_references(args) if references is None else None
    try:
        inputs = e2e_inputs.generate(args.workload, args.seed, args.scale)
    except BaseException:
        if child is not None:
            child.kill()
            child.wait()
        raise
    if child is not None:
        references = _finish_references(child)
    tally = e2e_measure.Tally(references)
    setup = e2e_measure.set_up(inputs, tally)
    if args.trace:
        values, run_info = e2e_measure.traced_run(inputs, setup, tally, args.seconds)
        units = e2e_measure.PER_LAYER
    else:
        values, run_info = e2e_measure.timed_run(inputs, setup, tally, args.seconds)
        units = e2e_measure.END_TO_END
    backend = vector_backend()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "sequences": [raw.describe() for raws in inputs.catalogs for raw in raws],
        "buffer_pool": {
            "page_capacity": e2e_inputs.PAGE_CAPACITY,
            "buffer_pages": e2e_inputs.BUFFER_PAGES,
        },
        "requests_per_pass": len(inputs.requests),
        "setup_repeats": setup.repeats,
        "setup_time_scale": round(setup.time_scale, 4),
        "python": platform.python_version(),
        "vector_backend": f"numpy {backend.__version__}" if backend is not None else "none",
        **run_info,
    }
    if tally.first_failure is not None:
        info["first_failure"] = tally.first_failure
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    return result, info


def main() -> int:
    args = _parse_args(sys.argv[1:])
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    _import_program()
    if args.references:
        import e2e_inputs

        inputs = e2e_inputs.generate(args.workload, args.seed, args.scale)
        print(json.dumps(e2e_inputs.reference_digests(inputs)))
        return 0
    result, info = run(args)
    print(json.dumps({"info": info}))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
