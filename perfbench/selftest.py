#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Builds the benchmark, runs every workload at a tiny size and checks that:
- every metric BENCHMARK.json names is emitted, with its declared unit,
  and nothing else is;
- every metric name matches [A-Za-z0-9_.-]+;
- the same seed gives identical simulated outcomes and exact counts, in
  separate processes and with tracing on;
- a different seed gives different inputs.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def drive(workload, seed, trace):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, env=run.program_env(), cwd=run.ROOT,
        timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("benchmark failed on %s seed %d trace %d"
                         % (workload, seed, trace))
    lines = out.stdout.splitlines()
    detail = [json.loads(l[len("detail "):]) for l in lines
              if l.startswith("detail ")]
    return json.loads(lines[-1]), detail[0]


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for names in declared.values():
        expect(all(NAME.match(n) for n in names),
               "declared metric names match [A-Za-z0-9_.-]+")
    for w in run.WORKLOADS:
        first, d_first = drive(w, 1, 0)
        again, d_again = drive(w, 1, 0)
        other, d_other = drive(w, 2, 0)
        traced, d_traced = drive(w, 1, 1)
        for trace, result in ((0, first), (1, traced)):
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[trace],
                   "%s --trace %d emits every declared metric with its unit"
                   % (w, trace))
            expect(all(NAME.match(k) for k in emitted),
                   "%s --trace %d metric names match [A-Za-z0-9_.-]+"
                   % (w, trace))
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   "%s --trace %d values are numbers" % (w, trace))
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   "%s --trace %d passes its output checks" % (w, trace))
        expect(d_first["exact"] and d_first["exact"] == d_again["exact"],
               "%s: same seed, identical simulated metrics" % w)
        expect(d_first["exact"] == d_traced["exact"],
               "%s: traced run reproduces the untraced simulated metrics" % w)
        expect(d_first["inputs_digest"] == d_again["inputs_digest"]
               and d_first["inputs_digest"] != d_other["inputs_digest"],
               "%s: a different seed gives different inputs" % w)
    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
