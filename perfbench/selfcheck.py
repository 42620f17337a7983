#!/usr/bin/env python3
"""Shows that the benchmark's checks reject wrong outputs.

    python3 perfbench/selfcheck.py

Runs the demos/04 config once through the CLI, confirms that its outputs
pass, then damages copies of them and confirms that each is rejected:
a snapshot shifted by one grid cell, a NaN in report.json, a psi column
that is not psi_e + psi_o, a rerun whose bytes differ, a coeffs row
flagged far from u*, and singularity reports with a wrong or no u*.
Takes a few seconds; exits 0 when every damaged output was rejected.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run


def _rewrite_snapshot(path, transform):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    data = transform(data)
    rows = [",".join(repr(float(v)) for v in row) for row in data]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _shift_one_cell(data):
    data[:, 1:] = np.roll(data[:, 1:], 1, axis=0)
    return data


def _break_psi(data):
    i = int(np.argmax(np.abs(data[:, 5])))
    data[i, 5] += 1e-3 * abs(data[i, 5])
    return data


def _nan_in_report(out):
    path = out / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["rows"][-1]["norm_rindler"] = float("nan")
    path.write_text(json.dumps(report), encoding="utf-8")


def _last_digit_changed(out):
    path = sorted(out.glob("snapshot_*.csv"))[-1]
    text = path.read_text(encoding="utf-8")
    cut = text.rindex(",") + 1
    path.write_text(text[:cut] + "1" + text[cut:], encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import checks
    import rindlersim.oracle as oracle
    from tracing import Tracer

    op = run.workload_rounds("demo04", 0)(0)[0]
    rejected = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        runner = run.Runner(workdir, Tracer(), checks, oracle)
        _, failed, where = runner.run_op(op, traced=False)
        if failed:
            print("the undamaged run failed its norm check")
            return 1
        good = where / "out"
        last = sorted(good.glob("snapshot_*.csv"))[-1].name

        def damaged(damage):
            out = workdir / "damaged"
            shutil.rmtree(out, ignore_errors=True)
            shutil.copytree(good, out)
            damage(out)
            return out

        scan = workdir / "scan.csv"
        u_far = checks.own_u_star() + 2.0 * checks.FLAG_BAND
        scan.write_text(f"u,f,g,D,regime_flag\n{u_far!r},,,0.5,singular\n", encoding="utf-8")
        singular = json.dumps({"u_star": checks.own_u_star() + 1e-6, "x_star": 3.6})
        cases = [
            ("snapshot shifted by one grid cell", lambda: runner.check_evolve(
                op, damaged(lambda out: _rewrite_snapshot(out / last, _shift_one_cell)))),
            ("NaN in report.json", lambda: runner.check_evolve(op, damaged(_nan_in_report))),
            ("psi != psi_e + psi_o in one CSV row", lambda: runner.check_evolve(
                op, damaged(lambda out: _rewrite_snapshot(out / last, _break_psi)))),
            ("rerun that is not byte-identical",
             lambda: runner.compare_rerun(op, damaged(_last_digit_changed))),
            ("coeffs row flagged outside the band", lambda: checks.check_coeffs(scan)),
            ("singularity with a wrong u*", lambda: checks.check_singularity(singular, 1.0)),
            ("singularity output without u*",
             lambda: checks.check_singularity('{"x_star": 3.6}', 1.0)),
        ]
        for name, call in cases:
            try:
                call()
            except checks.BAD_OUTPUT as exc:
                rejected.append(name)
                print(f"rejected  {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"ACCEPTED  {name}")
    return 0 if len(rejected) == len(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
