"""Outside-in benchmark of the sfwm command line.

    python3 perfbench/run.py --workload design --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is not installed.
Every command is a fresh `python -m sfwm.cli <cmd> --preset|--config ...
--out DIR` process with PYTHONPATH set to the checkout's `src`, because a
CLI user pays interpreter start and import on every command.

Workloads are closed loops: one client runs the workload's commands back to
back, one process at a time, and a pass is one round of them.
  design        dispersion fig1, contours fig2b, spectrum fig3 and
                design-report fig4: profile builds, the match searches,
                mismatch maps and contours, the analytic JSA and its SVD, and
                four imports; no pump quadrature.
  nanowire_jsa  jsa fig4: the 100 m nanowire, whose strongly chirped pump
                integrand makes the quadrature about all of the run.
  strand_jsa    jsa fig3: the 0.5 m silica strand with a narrow pump, where
                the quadrature dominates less and the 3 MB CSV shows.
Seed 0 runs the packaged presets exactly.  Any other seed writes --config
run files that draw each preset's pump.fwhm_nm within +-10%; the fibre is
left alone because the group-velocity match is fragile in its radius.

--trace 0 runs passes for --seconds (at least two, so that result files can
be compared between passes) after timing cold imports, and reports the
end-to-end metrics.  --trace 1 runs one untraced pass and one traced pass,
in which each command runs under perfbench/trace_cmd.py with span and count
hooks, and reports the per-layer metrics.  Either way every command's
outputs are checked (perfbench/checks.py) and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import collections
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(HERE, "trace_cmd.py")

WORKLOADS = {
    "design": [
        ("dispersion", "fig1"),
        ("contours", "fig2b"),
        ("spectrum", "fig3"),
        ("design-report", "fig4"),
    ],
    "nanowire_jsa": [("jsa", "fig4")],
    "strand_jsa": [("jsa", "fig3")],
}
MIN_PASSES = 2
SETUP_IMPORTS = 5
FWHM_JITTER = 0.10

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "modes.effective_index.calls": "count",
    "modes.effective_index.points": "count",
    "modes.effective_index.self_s": "s",
    "materials.refractive_index.calls": "count",
    "materials.refractive_index.self_s": "s",
    "dispersion.build_profile.calls": "count",
    "dispersion.build_profile.self_s": "s",
    "dispersion.find_fgvm_points.s": "s",
    "dispersion.find_fgvm_points.self_s": "s",
    "dispersion.find_zdfs.s": "s",
    "dispersion.k_derivative.calls": "count",
    "dispersion.k_derivative.points": "count",
    "dispersion.k_derivative.self_s": "s",
    "config.load_preset.s": "s",
    "config.load_config.s": "s",
    "config.resolve_pump.self_s": "s",
    "phasematching.pm_map.s": "s",
    "phasematching.trace_contours.calls": "count",
    "phasematching.trace_contours.self_s": "s",
    "phasematching.trace_contours.vertices": "count",
    "phasematching.singles_spectrum.s": "s",
    "biphoton.jsa_numeric.calls": "count",
    "biphoton.jsa_numeric.s": "s",
    "biphoton.jsa_numeric.self_s": "s",
    "biphoton.jsa_numeric.nodes": "count",
    "biphoton.jsa_numeric.check_s": "s",
    "biphoton.leggauss.calls": "count",
    "biphoton.leggauss.s": "s",
    "biphoton.sinc_phase.points": "count",
    "biphoton.sinc_phase.self_s": "s",
    "biphoton.quad.integrand_points": "count",
    "biphoton.quad.points_per_s": "1/s",
    "biphoton.jsa_analytic.s": "s",
    "biphoton.schmidt_metrics.s": "s",
    "cli.main.wall_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "cli.dispersion.wall_s": "s",
    "cli.contours.wall_s": "s",
    "cli.spectrum.wall_s": "s",
    "cli.design-report.wall_s": "s",
    "cli.jsa.wall_s": "s",
    "process.import_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}

# Metrics derived from more than the hook their name starts with.
DEPENDS = {
    "biphoton.quad.integrand_points": ("biphoton.sinc_phase", "biphoton.jsa_numeric"),
    "biphoton.quad.points_per_s": ("biphoton.sinc_phase", "biphoton.jsa_numeric"),
}


class BenchError(Exception):
    pass


# One finished child: wall and CPU seconds, peak RSS in MB, exit code.
Proc = collections.namedtuple("Proc", "wall cpu rss_mb code")


def run_process(argv, env, stdout_path, stderr_path=os.devnull):
    """Run argv to completion, accounting its own resources through wait4.

    RUSAGE_CHILDREN would report the largest RSS of every child reaped so
    far, not this one's.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def environment():
    """nproc, CPU, interpreter and library versions, OpenBLAS build and threads."""
    import ctypes

    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas_build = (
        np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")
        or "unknown"
    )
    blas_threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lib = ctypes.CDLL(next(l.split()[-1] for l in fh if "openblas" in l))
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = int(fn())
                break
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "openblas_build": blas_build,
        "openblas_threads": blas_threads,
        "load": "one process at a time",
    }


def child_env(env_record):
    """Environment of every command: the checkout's src first on PYTHONPATH,
    and OpenBLAS held to at most nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = env_record["openblas_threads"]
    if threads is None or threads > env_record["nproc"]:
        env["OPENBLAS_NUM_THREADS"] = str(env_record["nproc"])
        env_record["openblas_threads"] = env_record["nproc"]
    return env


def make_sources(seed, presets, work):
    """CLI source arguments per preset: the preset itself, or a seeded run file."""
    if seed == 0:
        return {p: ["--preset", p] for p in presets}
    os.makedirs(os.path.join(work, "configs"), exist_ok=True)
    sources = {}
    for preset in presets:
        rng = random.Random(f"{seed}:{preset}")
        factor = 1.0 + rng.uniform(-FWHM_JITTER, FWHM_JITTER)
        with open(os.path.join(SRC, "sfwm", "presets", f"{preset}.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        text, n = re.subn(
            r"(?m)^(fwhm_nm\s*=\s*)(\S+)",
            lambda m: f"{m.group(1)}{float(m.group(2)) * factor:.9g}",
            text,
        )
        if n != 1:
            raise BenchError(f"preset {preset} has {n} fwhm_nm lines, expected 1")
        path = os.path.join(work, "configs", f"{preset}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        sources[preset] = ["--config", os.path.relpath(path, ROOT)]
    return sources


def digest(out_dir, stdout_path):
    """Hash of a command's stdout and every result file it wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    with open(stdout_path, "rb") as fh:
        h.update(b"stdout\0" + fh.read())
    return h.hexdigest()


def output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def run_pass(commands, sources, pass_dir, env, traced=False):
    """One closed-loop round of the workload; returns per-command records."""
    os.makedirs(pass_dir)
    records = []
    for idx, (command, preset) in enumerate(commands):
        out_dir = os.path.join(pass_dir, f"{idx}-{command}-{preset}")
        os.makedirs(out_dir)
        cli = [command, *sources[preset], "--out", os.path.relpath(out_dir, ROOT)]
        trace_path = out_dir + ".trace.json"
        if traced:
            argv = [sys.executable, TRACER, trace_path, *cli]
        else:
            argv = [sys.executable, "-m", "sfwm.cli", *cli]
        proc = run_process(argv, env, out_dir + ".stdout", out_dir + ".stderr")
        trace = None
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        records.append(
            {
                "command": command,
                "preset": preset,
                "proc": proc,
                "out_dir": out_dir,
                "digest": digest(out_dir, out_dir + ".stdout"),
                "trace": trace,
            }
        )
        if proc.code != 0:
            with open(out_dir + ".stderr", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"{command} {preset}: exit {proc.code}\n{tail}", file=sys.stderr)
    return records


def check_outputs(records, seed):
    """Per command index: list of problems found in its outputs."""
    import checks

    reference = checks.load_reference()
    problems = []
    for rec in records:
        if rec["proc"].code != 0:
            problems.append([f"exit code {rec['proc'].code}"])
            continue
        with open(rec["out_dir"] + ".stdout", encoding="utf-8") as fh:
            stdout = fh.read()
        try:
            summary = checks.summarise(rec["command"], rec["out_dir"], stdout)
        except (OSError, ValueError, StopIteration, KeyError, IndexError) as exc:
            problems.append([f"unreadable output: {exc!r}"])
            continue
        problems.append(
            checks.check(
                rec["command"], rec["preset"], seed, summary,
                reference["values"], reference["tolerance"],
            )
        )
    return problems


def count_failures(passes, problems):
    """Failed command runs: bad exit, failed check, or files unlike pass 1."""
    failed = 0
    for records in passes:
        for idx, rec in enumerate(records):
            if rec["proc"].code != 0 or problems[idx] or rec["digest"] != passes[0][idx]["digest"]:
                failed += 1
                if rec["digest"] != passes[0][idx]["digest"]:
                    print(f"{rec['command']} {rec['preset']}: outputs differ from pass 1", file=sys.stderr)
    for idx, rec in enumerate(passes[0]):
        for problem in problems[idx]:
            print(f"{rec['command']} {rec['preset']}: {problem}", file=sys.stderr)
    return failed


def layer_metrics(untraced, traced):
    """Per-layer values from the traced pass, with the untraced pass as base."""
    spans, counts, missing = {}, {}, set()
    check_s = 0.0
    walls = {}
    for rec in traced:
        walls.setdefault(f"cli.{rec['command']}.wall_s", 0.0)
        trace = rec["trace"]
        if trace is None:
            continue
        missing.update(trace["missing"])
        for name, span in trace["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += span[key]
        for key, value in trace["counts"].items():
            if key.endswith(".nodes"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        walls[f"cli.{rec['command']}.wall_s"] += trace["spans"]["cli.main"]["s"]
        check_s += trace["check_s"] or 0.0

    values = dict(counts)
    for name, span in spans.items():
        for key, value in span.items():
            values[f"{name}.{key}"] = value
    values.update(walls)
    values["cli.main.wall_s"] = spans.get("cli.main", {}).get("s", 0.0)
    values["biphoton.jsa_numeric.check_s"] = check_s
    jsa_s = spans.get("biphoton.jsa_numeric", {}).get("s", 0.0)
    values["biphoton.quad.points_per_s"] = (
        counts.get("biphoton.quad.integrand_points", 0) / jsa_s if jsa_s > 0 else 0.0
    )
    values["cli.output_bytes"] = sum(output_bytes(rec["out_dir"]) for rec in traced)
    imports = [rec["trace"]["import_s"] for rec in traced if rec["trace"]]
    values["process.import_s"] = statistics.median(imports) if imports else 0.0
    values["process.cpu_s"] = sum(rec["proc"].cpu for rec in untraced)
    split_s = sum(rec["trace"]["split_s"] for rec in traced if rec["trace"])
    traced_run_s = sum(rec["proc"].wall for rec in traced) - split_s
    values["trace.overhead_s"] = traced_run_s - sum(rec["proc"].wall for rec in untraced)

    metrics = {}
    for name, unit in PER_LAYER.items():
        hooks = DEPENDS.get(name, (name.rsplit(".", 1)[0],))
        if missing.intersection(hooks):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": values.get(name, 0), "unit": unit}
    return metrics, sorted(missing)


def timed_run(commands, sources, work, env, seed, seconds):
    """End-to-end metrics: cold imports, then passes for `seconds` (at least two)."""
    setup = []
    for _ in range(SETUP_IMPORTS):
        proc = run_process([sys.executable, "-c", "import sfwm.cli"], env, os.devnull)
        if proc.code != 0:
            raise BenchError(f"import sfwm.cli exited {proc.code}")
        setup.append(proc.wall)
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(commands, sources, os.path.join(work, f"pass{len(passes)}"), env))
        if len(passes) > 1:  # pass 0 is kept for the output checks
            shutil.rmtree(os.path.join(work, f"pass{len(passes) - 1}"))
    failed = count_failures(passes, check_outputs(passes[0], seed))
    walls = [sum(r["proc"].wall for r in records) for records in passes]
    rss = [max(r["proc"].rss_mb for r in records) for records in passes]
    values = {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"run_s        {values['run_s']:.4f} s   median of {len(walls)} passes: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"setup_s      {values['setup_s']:.4f} s   median of {len(setup)} cold imports "
          f"of sfwm.cli (min {min(setup):.4f}, max {max(setup):.4f})")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB  largest command per pass, median")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return len(passes) * len(commands), failed, metrics


def traced_run(commands, sources, work, env, seed, seconds):
    """Per-layer metrics: one untraced pass, then one traced pass that must match it."""
    untraced = run_pass(commands, sources, os.path.join(work, "untraced"), env)
    traced = run_pass(commands, sources, os.path.join(work, "traced"), env, traced=True)
    failed = count_failures([untraced, traced], check_outputs(untraced, seed))
    metrics, missing = layer_metrics(untraced, traced)
    for name, m in metrics.items():
        shown = "missing" if m.get("missing") else f"{m['value']:.6g}"
        print(f"{name:40s} {shown:>14s} {m['unit']}")
    if missing:
        print("missing hooks: " + " ".join(missing))
    return 2 * len(commands), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sfwm", "cli.py")):
        print(f"error: no sfwm sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    commands = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    env_record = environment()
    env = child_env(env_record)
    for key, value in env_record.items():
        print(f"env {key}: {value}")
    with open(os.path.join(work, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env_record, fh, indent=1)

    sources = make_sources(args.seed, sorted({p for _, p in commands}), work)
    print(f"workload {args.workload}, seed {args.seed}: "
          + "; ".join(f"{c} {' '.join(sources[p])}" for c, p in commands))

    run = traced_run if args.trace else timed_run
    attempted, failed, metrics = run(commands, sources, work, env, args.seed, args.seconds)
    print(f"error_rate   {failed / attempted:.4g}     {failed} of {attempted} commands failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
