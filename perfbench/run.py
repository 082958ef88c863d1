"""Time to a certified duality gap on seeded synthetic hierarchies.

    python3 perfbench/run.py --workload grid-distinct --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from its
``src/`` directory and scratch files go to ``.perfbench/`` there. One
process runs one operation at a time with no threads (a closed loop with a
single client).

Within ``--seconds`` the run repeats rounds: one certified solve, then
set-ups from the file (each followed by the cold first loading of the
fresh network) for 10 % of the solve's time and warm loadings for 30 % of
it. The gated times are 90th percentiles over the window (see ``upper``);
medians are printed beside them. The first solve's outputs are checked
(see ``checks``) and every later solve must reproduce its files byte for
byte. ``--trace 1`` spends 60 % of the window on the same untraced measurements,
then traces a few set-ups and solves, and reports the per-layer split
instead of the end-to-end metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric this run measured by name with its unit, the input descriptors and
any failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import Stat, Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("flows.csv", "certificate.json", "history.csv")

# Each round of the window solves once, then sets up and loads for these
# shares of that solve's time.
SETUP_SHARE = 0.1
LOAD_SHARE = 0.3
MIN_LOADS = 100  # so that the 90th percentile has ten samples above it
MIN_SOLVES = 3
TRACED_SETUPS = 3
TRACED_SOLVES = 2  # two, so that the traced counts can be compared

# Reported with ``--trace 0``: what a user of the solver waits for or pays.
# Times are 90th percentiles over the run (see ``upper``).
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "load_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# Reported with ``--trace 1``: one layer each, see README.md for what moves them.
PER_LAYER = {
    "load_ms_p50": "ms",
    "cli.parse_s": "s",
    "model.validate_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "loading.sweep_ms": "ms",
    "loading.forward_ms": "ms",
    "loading.first_load_ms": "ms",
    "loading.grad_s": "s",
    "loading.grad_calls": "count",
    "loading.value_s": "s",
    "loading.value_calls": "count",
    "loading.write_weights_s": "s",
    "costs.prox_s": "s",
    "costs.prox_calls": "count",
    "costs.prox_newton_steps": "count",
    "costs.conjugate_s": "s",
    "costs.conjugate_calls": "count",
    "costs.integral_s": "s",
    "costs.integral_calls": "count",
    "solver.average_s": "s",
    "solver.self_s": "s",
    "solver.l2_diagnostic_s": "s",
    "solver.iters": "count",
    "solver.oracle_calls": "count",
    "solver.backtracks": "count",
    "solver.accept_ratio": "ratio",
    "solver.ms_per_iter": "ms",
    "solver.l0_floor_iters": "count",
    "trace.solve_s": "s",
    "trace.overhead_frac": "ratio",
}
# Printed, not in the JSON: inputs, sample counts and check details.
OTHER_UNITS = {
    "input.levels": "count",
    "input.nodes": "count",
    "input.plain_edges": "count",
    "input.power_edges": "count",
    "input.ods": "count",
    "input.dests": "count",
    "input.od_per_dest": "ratio",
    "fail_frac": "ratio",
    "samples.setup": "count",
    "samples.load": "count",
    "samples.solve": "count",
    "check.oracle_max_dev": "ratio",
    "trace.self_sum_s": "s",
    "setup_s.p50": "s",
    "solve_s.p50": "s",
    "solve_s.max": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-distinct", "grid-shared-dest", "bpr-corridor",
                                 "cyclic-grid"))
    parser.add_argument("--seed", type=int, required=True,
                        help="perturbs cost parameters and demands, shuffles edge order")
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layout", type=int, default=0,
                        help="network shape; layouts other than 0 are held out")
    return parser.parse_args(argv)


class Bench:
    """One workload instance: its files, its set-up, its solve, its checks."""

    def __init__(self, sf, args: argparse.Namespace) -> None:
        import checks  # imports sueflow, so only once src/ is on the path

        self.sf = sf
        self.checks = checks
        self.attempted = 0
        self.failures: list[str] = []
        self.work = ROOT / ".perfbench" / f"{args.workload}-layout{args.layout}-seed{args.seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = self.work / "out"
        self.out.mkdir(parents=True)
        self.net_path = self.work / "network.json"
        self.cfg_path = self.work / "config.json"

        generate = workloads.GENERATORS[args.workload]
        doc, self.walk_cap = generate(args.layout, args.seed)
        self.descriptors = workloads.describe(doc)
        self.net_path.write_text(json.dumps(doc, indent=2) + "\n")
        shrunk_doc, shrunk_cap = generate(args.layout, args.seed, shrink=True)
        self.shrunk = self.from_doc(shrunk_doc, shrunk_cap)
        if self.walk_cap is None:
            # The CLI workloads must pass ``sueflow validate`` as written.
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet):
                ok, code = self.op("validate", lambda: sf.cli.main(
                    ["validate", "--network", str(self.net_path)]))
            if ok and code != 0:
                self.fail("validate", f"exit {code}: {quiet.getvalue().strip()}")
        ok, net = self.op("setup", self.setup)
        if ok:
            self.op("config", lambda: self.write_config(
                net, workloads.REL_GAP[args.workload], workloads.MAX_ITERS))

    def write_config(self, net, rel_gap: float, max_iters: int) -> None:
        """The relative-gap target as the absolute ``gap_tol`` the config takes."""
        dual_at_free_flow = self.sf.loading.dual_objective(net, net.free_flow_times())
        self.gap_tol = rel_gap * abs(dual_at_free_flow)
        self.cfg_path.write_text(
            json.dumps({"gap_tol": self.gap_tol, "max_iters": max_iters}) + "\n")
        # Iterations at the floor L = L0 show whether the initial estimate binds.
        self.L0 = self.sf.cli.load_config(self.cfg_path).L0

    # -- bookkeeping ------------------------------------------------------

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def check(self, what: str, holds: bool, why: str) -> None:
        """Count one check; record ``why`` when it does not hold."""
        self.attempted += 1
        if not holds:
            self.fail(what, why)

    def op(self, what: str, fn) -> tuple[bool, object]:
        """Run one operation; an exception or a failed check counts as failed."""
        self.attempted += 1
        try:
            return True, fn()
        except SystemExit as err:  # argparse inside the CLI
            self.fail(what, f"exit {err.code}")
        except Exception as err:  # noqa: BLE001 - every failure is counted, none skipped
            self.fail(what, f"{type(err).__name__}: {err}")
        return False, None

    # -- the program under test ------------------------------------------

    def from_doc(self, doc: dict, walk_cap: int | None):
        base = self.sf.cli.network_from_dict(doc)
        if walk_cap is None:
            return base
        return self.sf.NetworkHierarchy(base.levels, base.gammas, walk_cap=walk_cap)

    def setup(self):
        """File to validated hierarchy: the CLI's parser for DAG workloads;
        the cyclic one is built through the library, which admits cycles."""
        if self.walk_cap is None:
            return self.sf.cli.parse_network(self.net_path)
        net = self.from_doc(json.loads(self.net_path.read_text()), self.walk_cap)
        violations = self.sf.cli.validate_hierarchy(net)
        if violations:
            raise self.checks.CheckFailed(f"invalid network: {violations}")
        return net

    def solve(self, call) -> tuple[float, dict[str, bytes], dict[str, int]]:
        """One certified solve, ``call(span name, fn, *args)`` timed; returns
        the seconds, the output files and the solver's counts."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        if self.walk_cap is None:
            argv = ["solve", "--network", str(self.net_path), "--config", str(self.cfg_path),
                    "--out", str(self.out)]
            start = time.perf_counter()
            code = call("cli.main", self.sf.cli.main, argv)
            seconds = time.perf_counter() - start
            if code != 0:
                raise self.checks.CheckFailed(f"solve exited with {code}")
            files = {name: (self.out / name).read_bytes() for name in OUTPUTS}
            rows = [line.split(",") for line in files["history.csv"].decode().splitlines()[2:]]
            counts = {"iters": json.loads(files["certificate.json"])["T"],
                      "oracle_calls": int(rows[-1][2]),
                      "l0_floor_iters": sum(float(r[1]) == self.L0 for r in rows)}
            return seconds, files, counts
        net = self.setup()
        cfg = self.sf.cli.load_config(self.cfg_path)
        start = time.perf_counter()
        t_final, cert, history = call("solver.solve", self.sf.solve, net, cfg)
        seconds = time.perf_counter() - start
        if not cert.gap <= cfg.gap_tol:
            raise self.checks.CheckFailed(f"iteration cap hit at gap {cert.gap!r}")
        # The library returns objects; serialise them so reruns compare by bytes.
        files = {
            "flows.csv": repr(cert.avg_flows).encode(),
            "certificate.json": repr((t_final, cert.dual_value, cert.primal_value, cert.gap,
                                      cert.T)).encode(),
            "history.csv": repr([(r.iter, r.L_used, r.n_func_evals, r.dual_value, r.gap)
                                 for r in history]).encode(),
        }
        self.library_result = (net, t_final, cert)
        return seconds, files, {"iters": cert.T, "oracle_calls": history[-1].n_func_evals,
                                "l0_floor_iters": sum(r.L_used == self.L0 for r in history)}

    def check_outputs(self, files: dict[str, bytes]) -> None:
        if self.walk_cap is None:
            self.checks.check_cli_outputs(self.setup(), files, self.gap_tol)
        else:
            net, t_final, cert = self.library_result
            self.checks.check_certificate(net, t_final, cert.avg_flows, cert.dual_value,
                                          cert.gap, self.gap_tol)

    def check_rerun(self, files: dict[str, bytes], reference: dict[str, bytes]) -> None:
        changed = [name for name in OUTPUTS if files[name] != reference[name]]
        if changed:
            raise self.checks.CheckFailed(f"a rerun with the same inputs changed {changed}")


def untraced(name, fn, *args):
    return fn(*args)


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def upper(values) -> float:
    """90th percentile, interpolated within the samples.

    On the machine the benchmark was built on (2 vCPUs on a shared host) the
    same code runs anywhere between about 0.5x and 1x of its usual time, in
    spells of seconds to minutes, and the share of fast time differs from run
    to run. Medians then jump between runs; the upper decile of many short
    samples reads the usual speed unless nine tenths of a run are fast.
    """
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(bench: Bench, seconds: float, traced: bool) -> dict[str, float]:
    """The timed window; returns every metric this mode measures."""
    sf = bench.sf
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start

    setup_s, first_load_ms, load_ms, sweep_ms, solve_s = [], [], [], [], []
    reference, counts = None, None

    def setups(seconds: float) -> tuple[bool, object, list[float]]:
        """Set-ups for ``seconds``, each followed by the cold first loading
        of the fresh network."""
        until = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            ok, net = bench.op("setup", bench.setup)
            if not ok:
                return False, None, []
            setup_s.append(time.perf_counter() - t0)
            t_free = net.free_flow_times()
            t0 = time.perf_counter()
            ok, _ = bench.op("first load", lambda: sf.network_loading(net, t_free))
            if not ok:
                return False, None, []
            first_load_ms.append(1e3 * (time.perf_counter() - t0))
            if time.perf_counter() >= until:
                return True, net, t_free

    def loads(net, t_free, seconds: float, least: int = 1) -> bool:
        """Warm loadings at free-flow times; traced runs also time the sweep."""
        until = time.perf_counter() + seconds
        count = 0
        while count < least or time.perf_counter() < until:
            count += 1
            t0 = time.perf_counter()
            ok, _ = bench.op("load", lambda: sf.network_loading(net, t_free))
            if not ok:
                return False
            load_ms.append(1e3 * (time.perf_counter() - t0))
            if traced:
                t0 = time.perf_counter()
                ok, _ = bench.op("sweep", lambda: sf.hierarchical_weights(net, t_free))
                if not ok:
                    return False
                sweep_ms.append(1e3 * (time.perf_counter() - t0))
        return True

    def solve() -> bool:
        """A certified solve: the first is checked, later ones must match it."""
        nonlocal reference, counts
        ok, result = bench.op("solve", lambda: bench.solve(untraced))
        if not ok:
            return False
        took, files, counts = result
        solve_s.append(took)
        if reference is None:
            reference = files
            ok, _ = bench.op("check outputs", lambda: bench.check_outputs(files))
        else:
            ok, _ = bench.op("rerun", lambda: bench.check_rerun(files, reference))
        return ok

    # The machine's speed drifts by tens of percent over seconds, so each
    # round takes all three kinds of sample, in proportion to the solve's
    # length, and every timing sees the same mix of fast and slow spells.
    end = (0.6 if traced else 1.0) * seconds
    least = TRACED_SOLVES if traced else MIN_SOLVES
    round_s = 0.0
    while len(solve_s) < least or elapsed() + round_s <= end:
        t0 = elapsed()
        if not solve():
            return {}
        ok, net, t_free = setups(SETUP_SHARE * solve_s[-1])
        if not (ok and loads(net, t_free, LOAD_SHARE * solve_s[-1])):
            return {}
        round_s = elapsed() - t0
    if len(load_ms) < MIN_LOADS and not loads(net, t_free, 0.0, MIN_LOADS - len(load_ms)):
        return {}

    metrics = {
        "setup_s": upper(setup_s),
        "solve_s": upper(solve_s),
        "load_ms_p90": upper(load_ms),
        "load_ms_p50": median(load_ms),
        "setup_s.p50": median(setup_s),
        "solve_s.p50": median(solve_s),
        "samples.setup": len(setup_s),
        "samples.load": len(load_ms),
        "samples.solve": len(solve_s),
        "solve_s.max": max(solve_s),
    }
    if traced:
        split = traced_split(bench, reference, counts)
        if not split:
            return metrics
        metrics.update(split)
        metrics["loading.sweep_ms"] = median(sweep_ms)
        metrics["loading.forward_ms"] = metrics["load_ms_p50"] - metrics["loading.sweep_ms"]
        metrics["loading.first_load_ms"] = median(first_load_ms)
        metrics["trace.overhead_frac"] = metrics["trace.solve_s"] / metrics["solve_s.p50"] - 1.0
        # The self times of a traced solve must account for its wall time: a
        # residual beyond the tracing overhead means time counted twice or lost.
        residual = abs(metrics["trace.self_sum_s"] - metrics["trace.solve_s"])
        bench.check(
            "trace sum",
            residual <= max(metrics["trace.overhead_frac"], 0.01) * metrics["trace.solve_s"],
            f"self times sum to {metrics['trace.self_sum_s']:.6f} s, "
            f"traced solve took {metrics['trace.solve_s']:.6f} s")
    return metrics


def traced_split(bench: Bench, reference, counts) -> dict[str, float]:
    """Traced set-ups and solves; the per-layer split of the faster solve."""
    tracer = Tracer()
    setups: list[tuple[float, float]] = []
    solves: list[dict[str, float]] = []
    with instrument(bench.sf, tracer):
        for _ in range(TRACED_SETUPS):
            tracer.begin(len(tracer.spans))
            ok, _ = bench.op("traced setup", lambda: tracer.call("setup", bench.setup))
            if not ok:
                return {}
            # The cyclic workload parses in the benchmark's own "setup" span.
            setups.append((tracer.span_self("setup") + tracer.span_self("cli.parse_network"),
                           tracer.span_self("model.validate_hierarchy")))
        for _ in range(TRACED_SOLVES):
            tracer.begin(len(tracer.spans))
            ok, result = bench.op("traced solve", lambda: bench.solve(tracer.call))
            if not ok:
                return {}
            took, files, solve_counts = result
            ok, _ = bench.op("traced rerun", lambda: bench.check_rerun(files, reference))
            bench.check("traced counts", solve_counts == counts,
                        f"counts {solve_counts}, untraced {counts}")
            if bench.failures:
                return {}
            solves.append(request_split(tracer, took, solve_counts))
    (bench.work / "trace.json").write_text(
        json.dumps({"spans": tracer.spans, "solves": solves}, indent=1) + "\n")

    first = solves[0]
    for key in ("solver.iters", "solver.oracle_calls", "costs.prox_calls",
                "costs.prox_newton_steps"):
        values = [s[key] for s in solves]
        bench.check("determinism", len(set(values)) == 1, f"{key} differs across reruns: {values}")
    bench.check("oracle count",
                first["loading.grad_calls"] + first["loading.value_calls"]
                == first["solver.oracle_calls"],
                "traced loading calls disagree with the solver's oracle count")
    # The faster of the two solves ran in the less contended spell.
    split = dict(min(solves, key=lambda s: s["trace.solve_s"]))
    split["cli.parse_s"] = min(p for p, _ in setups)
    split["model.validate_s"] = min(v for _, v in setups)
    split["cli.bytes_written"] = (sum(len(reference[name]) for name in OUTPUTS)
                                  if bench.walk_cap is None else 0)
    return split


def request_split(tracer, took: float, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced solve."""
    prox, conj, integ = (tracer.stats.get(f"costs.{name}", Stat())
                         for name in ("prox_conjugate", "conjugate", "integral"))
    library_s = sum(s["end"] - s["start"] for s in tracer.spans
                    if s["request"] == tracer.request and s["name"] == "solver.solve")
    trials = counts["oracle_calls"] // 2  # each trial: one gradient and one value call
    return {
        "trace.solve_s": took,
        "trace.self_sum_s": tracer.total_self(),
        "cli.write_s": tracer.span_self("cli.main"),
        "loading.write_weights_s": tracer.span_self("loading.hierarchical_weights"),
        "loading.grad_s": tracer.span_self("loading.network_loading"),
        "loading.grad_calls": tracer.span_count("loading.network_loading"),
        "loading.value_s": tracer.span_self("loading.dual_smooth_value"),
        "loading.value_calls": tracer.span_count("loading.dual_smooth_value"),
        "costs.prox_s": prox.self_s,
        "costs.prox_calls": prox.calls,
        "costs.prox_newton_steps": tracer.newton_steps,
        "costs.conjugate_s": conj.self_s,
        "costs.conjugate_calls": conj.calls,
        "costs.integral_s": integ.self_s,
        "costs.integral_calls": integ.calls,
        "solver.average_s": tracer.span_self("solver.average.entropy_term")
        + tracer.span_self("solver.average.surrogate_primal"),
        "solver.self_s": tracer.span_self("solver.solve"),
        "solver.l2_diagnostic_s": tracer.span_self("solver.lipschitz_bound_diagnostic"),
        "solver.iters": counts["iters"],
        "solver.oracle_calls": counts["oracle_calls"],
        "solver.backtracks": trials - counts["iters"],
        "solver.accept_ratio": counts["iters"] / trials,
        "solver.ms_per_iter": 1e3 * library_s / counts["iters"],
        "solver.l0_floor_iters": counts["l0_floor_iters"],
    }


def _finite(value):
    """JSON has no NaN: a metric a failed run could not measure is null."""
    return value if value is not None and value == value else None


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sueflow" / "__init__.py").is_file():
        print(f"error: no sueflow sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sueflow
    import sueflow.cli

    bench = Bench(sueflow, args)
    metrics: dict[str, float] = {}
    if not bench.failures:
        ok, deviation = bench.op("oracle",
                                 lambda: bench.checks.check_against_oracle(bench.shrunk))
        if ok:
            metrics["check.oracle_max_dev"] = deviation
            metrics.update(measure(bench, args.seconds, bool(args.trace)))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(bench.failures)
    metrics["fail_frac"] = failed / max(bench.attempted, 1)
    # fail_frac is 0 on a passing run; its complement is the reported metric.
    metrics["ok_frac"] = 1.0 - metrics["fail_frac"]
    metrics.update(bench.descriptors)

    units = {**END_TO_END, **PER_LAYER, **OTHER_UNITS}
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units.get(name, '')}".rstrip())
    for failure in bench.failures:
        print(f"FAILED {failure}")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(metrics.get(name)), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
