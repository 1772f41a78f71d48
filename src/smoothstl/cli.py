"""Command-line front end.

Five subcommands: eval and grad work on stored signals, synth runs one
synthesis scenario, bench repeats it for statistics, scale runs the cost
sweeps. Every failure path exits 2 with a message naming the stage that
broke; eval, grad and synth exit 0 only when the (exact) robustness is
positive, so shell pipelines can branch on satisfaction directly.

Outputs are plain files: full-precision CSVs, a structural SVG plot, and
a report.json echoing the resolved configuration. --json switches the
human summary to the report payload. Every run is serial and
deterministic.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .formula import RegionTable, format_formula
from .gradient import eval_with_gradient, save_gradient_csv
from .dynamics import save_controls_csv
from .optimizer import synthesize
from .parser import parse
from .robustness import EXACT, SemanticsConfig, evaluate, load_signal_csv, save_signal_csv
from .scenarios import (
    BUILTIN_SCENARIOS,
    build_problem,
    builtin_scenario,
    dwell_steps,
    load_scenario,
    run_bench,
    run_scaling,
    save_bench_csv,
    save_scaling_csv,
    scenario_to_json_dict,
)
from .svgplot import save_scene_svg

__all__ = ["main", "entry"]


class _CliError(Exception):
    def __init__(self, stage, error):
        super().__init__(f"error while {stage}: {error}")


@contextmanager
def _stage(name):
    """Convert any domain error raised inside into a stage-named failure."""
    try:
        yield
    except (ValueError, OSError, RuntimeError) as exc:
        raise _CliError(name, exc) from exc


# ---------------------------------------------------------------------------
# shared pieces


def _read_spec_arg(raw):
    """The text of the file raw names, else raw itself; text the OS rejects
    as a path name (too long, say) is formula text."""
    path = Path(raw)
    try:
        is_file = path.is_file()
    except OSError:
        return raw
    return path.read_text() if is_file else raw


def _load_regions(raw):
    if raw is None:
        return None
    data = json.loads(Path(raw).read_text())
    return RegionTable(data)


def _semantics(args):
    if args.semantics == "exact":
        return EXACT
    if args.semantics == "lse":
        return SemanticsConfig.lse(args.k)
    return SemanticsConfig.ef(args.k1, args.k2)


def _load_config(args):
    config = builtin_scenario(args.scenario) if args.scenario else load_scenario(args.config)
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _read_inputs(args):
    with _stage("reading inputs"):
        text = _read_spec_arg(args.spec)
        signal = load_signal_csv(args.signal)
        regions = _load_regions(args.regions)
    with _stage("parsing the spec"):
        return signal, parse(text, regions, p=signal.p)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, payload, human_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _write_report(out_dir, payload):
    path = Path(out_dir) / "report.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# eval / grad


def cmd_eval(args):
    signal, phi = _read_inputs(args)
    with _stage("evaluating"):
        config = _semantics(args)
        value = float(
            evaluate(phi, signal, t=args.t, config=config, classic_until=args.classic_until)
        )
    payload = {
        "command": "eval",
        "spec": format_formula(phi),
        "semantics": args.semantics,
        "t": args.t,
        "value": value,
        "satisfied": value > 0,
    }
    if args.semantics == "ef":
        payload.update(k1=args.k1, k2=args.k2)
    elif args.semantics == "lse":
        payload.update(k=args.k)
    _emit(args, payload, [repr(value)])
    return 0 if value > 0 else 1


def cmd_grad(args):
    signal, phi = _read_inputs(args)
    with _stage("differentiating"):
        config = SemanticsConfig.ef(args.k1, args.k2)
        result = eval_with_gradient(
            phi, signal, t=args.t, config=config, classic_until=args.classic_until
        )
    files = {}
    if args.out:
        with _stage("writing outputs"):
            save_gradient_csv(result, args.out)
            files["gradient"] = args.out
    value = float(result.value)
    payload = {
        "command": "grad",
        "spec": format_formula(phi),
        "k1": args.k1,
        "k2": args.k2,
        "t": args.t,
        "value": value,
        "satisfied": value > 0,
        "gradient": [[float(v) for v in row] for row in result.dsignal],
        "files": files,
    }
    human = [repr(value)]
    if args.out:
        human.append(f"gradient written to {args.out}")
    _emit(args, payload, human)
    return 0 if value > 0 else 1


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    with _stage("loading the scenario"):
        config = _load_config(args)
        overrides = {
            key: getattr(args, key)
            for key in ("k1", "k2", "restarts", "max_iters")
            if getattr(args, key) is not None
        }
        problem = build_problem(config, **overrides)
    with _stage("synthesizing"):
        result = synthesize(problem)
    with _stage("writing outputs"):
        out = _out_dir(args)
        traj_path = out / "trajectory.csv"
        save_signal_csv(result.y_star, traj_path)
        ctrl_path = out / "controls.csv"
        save_controls_csv(result.u_star, ctrl_path)
        svg_path = out / "scene.svg"
        save_scene_svg(
            config.effective_regions(), [result.y_star.values], svg_path, title=config.name
        )
        dwell = dwell_steps(config, result.y_star)
        satisfied_runs = sum(
            1 for r in result.restart_records if not r.failed and r.rho_exact > 0
        )
        payload = {
            "command": "synth",
            "scenario": config.name,
            "config": scenario_to_json_dict(config),
            "overrides": overrides,
            "x0": [float(v) for v in problem.x0],
            "result": {
                "rho_exact": float(result.rho_exact),
                "rho_smooth": float(result.rho_smooth),
                "satisfied": result.satisfied,
                "iterations": result.iterations,
                "restart_index": result.restart_index,
                "satisfied_restarts": satisfied_runs,
                "dwell_steps": dwell,
                "restarts": [dataclasses.asdict(r) for r in result.restart_records],
            },
            "timing": {"wall_s": result.wall_time},
            "files": {
                "trajectory": str(traj_path),
                "controls": str(ctrl_path),
                "plot": str(svg_path),
            },
        }
        payload["files"]["report"] = _write_report(out, payload)
    runs = len(result.restart_records)
    human = [
        f"scenario {config.name} ({config.model}, T={config.T}, "
        f"k1={problem.k1}, k2={problem.k2}, seed={config.seed})",
        f"restarts: {runs} runs, {satisfied_runs} satisfied, "
        f"best is restart {result.restart_index}",
        f"rho_exact {result.rho_exact!r}  rho_smooth {result.rho_smooth!r}  "
        f"({result.iterations} iterations, {result.wall_time:.2f}s)",
        f"dwell steps {dwell} of {config.T + 1}",
        f"wrote trajectory.csv controls.csv scene.svg report.json in {out}",
    ]
    _emit(args, payload, human)
    return 0 if result.satisfied else 1


# ---------------------------------------------------------------------------
# bench / scale


def cmd_bench(args):
    with _stage("loading the scenario"):
        config = _load_config(args)
    with _stage("benchmarking"):
        records, agg = run_bench(config, args.trials, args.budget_s)
    with _stage("writing outputs"):
        out = _out_dir(args)
        csv_path = out / "bench.csv"
        save_bench_csv(records, csv_path)
        payload = {
            "command": "bench",
            "scenario": config.name,
            "config": scenario_to_json_dict(config),
            "trials_requested": args.trials,
            "aggregate": dataclasses.asdict(agg),
            "records": [dataclasses.asdict(r) for r in records],
            "files": {"bench": str(csv_path)},
        }
        payload["files"]["report"] = _write_report(out, payload)
    human = [
        f"scenario {config.name}: {agg.trials} trials, {agg.completed} completed, "
        f"success rate {agg.success_rate:.2f}",
        f"rho_exact  mean {agg.mean_rho:.4f}  std {agg.std_rho:.4f}  "
        f"median {agg.median_rho:.4f}",
        f"wall_ms    mean {agg.mean_wall_ms:.1f}  std {agg.std_wall_ms:.1f}",
        f"wrote bench.csv report.json in {out}",
    ]
    _emit(args, payload, human)
    return 0


def _int_list(raw):
    if not raw:
        return ()
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def cmd_scale(args):
    if not args.n and not args.p:
        raise _CliError("parsing arguments", "nothing to sweep: pass --n and/or --p")
    with _stage("sweeping"):
        records = run_scaling(args.n, args.p, restarts=args.restarts, max_iters=args.max_iters)
    with _stage("writing outputs"):
        out = _out_dir(args)
        csv_path = out / "scaling.csv"
        save_scaling_csv(records, csv_path)
        payload = {
            "command": "scale",
            "n_values": list(args.n),
            "p_values": list(args.p),
            "records": [dataclasses.asdict(r) for r in records],
            "files": {"scaling": str(csv_path)},
        }
        payload["files"]["report"] = _write_report(out, payload)
    human = ["sweep  value  wall_ms      op_count"]
    for r in records:
        human.append(f"{r.sweep:5}  {r.value:5d}  {r.wall_ms:10.1f}  {r.op_count:10.1f}")
    human.append(f"wrote scaling.csv report.json in {out}")
    _emit(args, payload, human)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_spec_signal_args(p):
    p.add_argument("--spec", required=True,
                   help="formula text, or a path to a file containing it")
    p.add_argument("--signal", required=True, help="signal CSV with header t,y0,...")
    p.add_argument("--regions", help="JSON file of named box regions")
    p.add_argument("--t", type=int, default=0, help="evaluation time index")
    p.add_argument("--classic-until", action="store_true",
                   help="anchor the until history at the evaluation time "
                        "instead of the window start")


def _add_scenario_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", choices=sorted(BUILTIN_SCENARIOS))
    group.add_argument("--config", help="scenario JSON file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="smoothstl",
        description="Temporal-logic robustness evaluation and trajectory synthesis.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="robustness of a stored signal")
    _add_spec_signal_args(ev)
    ev.add_argument("--semantics", choices=("exact", "ef", "lse"), default="exact")
    ev.add_argument("--k1", type=float, default=2.0, help="conjunction sharpness")
    ev.add_argument("--k2", type=float, default=2.0, help="disjunction sharpness")
    ev.add_argument("--k", type=float, default=2.0, help="lse sharpness")
    ev.add_argument("--json", action="store_true")
    ev.set_defaults(run=cmd_eval)

    gr = sub.add_parser("grad", help="smooth robustness and its signal gradient")
    _add_spec_signal_args(gr)
    gr.add_argument("--k1", type=float, default=2.0)
    gr.add_argument("--k2", type=float, default=2.0)
    gr.add_argument("--out", help="write the gradient as CSV here")
    gr.add_argument("--json", action="store_true")
    gr.set_defaults(run=cmd_grad)

    sy = sub.add_parser("synth", help="synthesize controls for a scenario")
    _add_scenario_args(sy)
    sy.add_argument("--k1", type=float)
    sy.add_argument("--k2", type=float)
    sy.add_argument("--restarts", type=int)
    sy.add_argument("--seed", type=int)
    sy.add_argument("--max-iters", type=int)
    sy.add_argument("--out", default="smoothstl_out")
    sy.add_argument("--json", action="store_true")
    sy.set_defaults(run=cmd_synth)

    be = sub.add_parser("bench", help="repeat synthesis for statistics")
    _add_scenario_args(be)
    be.add_argument("--trials", type=int, default=20)
    be.add_argument("--budget-s", type=float, help="stop starting new trials after this")
    be.add_argument("--seed", type=int)
    be.add_argument("--out", default="smoothstl_out")
    be.add_argument("--json", action="store_true")
    be.set_defaults(run=cmd_bench)

    sc = sub.add_parser("scale", help="cost sweeps of the charging task")
    sc.add_argument("--n", type=_int_list, default=(), help="horizons, e.g. 10,20,30")
    sc.add_argument("--p", type=_int_list, default=(), help="stations per cluster, e.g. 1,2,3")
    sc.add_argument("--restarts", type=int, default=2)
    sc.add_argument("--max-iters", type=int, default=40)
    sc.add_argument("--out", default="smoothstl_out")
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(run=cmd_scale)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # the reader closed stdout; the interpreter flushes it again at
        # exit, which writing into devnull keeps from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error while writing outputs: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
