"""Same-process timings of fedsim's hot kernels: stacked training and aggregation.

Times ``model.sgd`` on one client's desk-scale data (100 rows, 16 features,
10 classes, two full-batch epochs) for a stack of G = 1, 4 and 18 models,
and ``defenses.aggregate`` under each rule (default ``DefenseConfig``) for
k = 8 and 10 clients' deltas of the softmax model's 170 parameters. Each
figure is the minimum over the repeats of the mean time of one call.

The cases are interleaved: every repeat times each case once, in turn, so a
change of host speed during the run reaches all of them alike. With
``--against DIR``, the fedsim package of a second source tree (such as a
``git archive`` of another commit, unpacked into DIR) is loaded into the
same process under another name and timed right after this tree's, case by
case, which shows differences of a few microseconds that separate processes
on a noisy host hide.

    python3 scripts/kernel_times.py [--repeats N] [--against DIR]

Pin the process to one CPU (``taskset -c 1 ...``) for steadier figures.
"""

import argparse
import importlib.util
import pathlib
import sys
import timeit

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROWS, FEATURES, CLASSES = 100, 16, 10
STACKS = (1, 4, 18)
CLIENTS = (8, 10)
RULES = ("fedavg", "multi_krum", "weak_dp", "scope_static", "faros")


def load_fedsim(tree: pathlib.Path, name: str):
    """The ``fedsim`` package under ``tree/src``, imported as ``name``."""
    pkg = tree / "src" / "fedsim"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cases(fedsim) -> dict:
    """Zero-argument calls into the package ``fedsim``, keyed by case."""
    model, defenses = fedsim.model, fedsim.defenses
    rng = np.random.default_rng(0)
    x = rng.normal(size=(ROWS, FEATURES))
    y = rng.integers(0, CLASSES, size=ROWS)
    spec = model.ModelSpec(FEATURES, CLASSES)
    tspec = model.TrainSpec(local_epochs=2, batch_size=4000, learning_rate=0.02)
    out = {}
    for g in STACKS:
        params = np.stack([model.init_params(spec, seed) for seed in range(g)])
        out[f"sgd G={g}"] = lambda p=params: model.sgd(p, spec, x, y, tspec, 7)
    # deltas around one shared direction, as honest clients' are
    common = rng.normal(size=spec.param_count())
    for k in CLIENTS:
        deltas = 0.05 * (common + 0.5 * rng.normal(size=(k, spec.param_count())))
        updates = [defenses.ClientUpdate(i, d) for i, d in enumerate(deltas)]
        for rule in RULES:
            cfg = defenses.DefenseConfig(kind=rule)
            out[f"{rule} k={k}"] = lambda u=updates, c=cfg: defenses.aggregate(u, c, seed=3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7, help="timed repeats per case")
    parser.add_argument("--against", type=pathlib.Path,
                        help="a second source tree, timed interleaved with this one")
    args = parser.parse_args(argv)
    trees = {"this tree": cases(load_fedsim(ROOT, "fedsim_here"))}
    if args.against is not None:
        trees["against"] = cases(load_fedsim(args.against.resolve(), "fedsim_against"))
    names = list(trees["this tree"])
    # calls per timed sample, about 0.05 s of them, the same for every tree and repeat
    number = {}
    for n in names:
        timer = timeit.Timer(trees["this tree"][n])
        calls, seconds = timer.autorange()
        number[n] = max(1, round(calls * 0.05 / seconds))
    best = {(tree, n): float("inf") for tree in trees for n in names}
    for _ in range(args.repeats):
        for n in names:
            for tree, calls in trees.items():
                t = timeit.Timer(calls[n]).timeit(number[n]) / number[n]
                best[tree, n] = min(best[tree, n], t)
    header = f"{'case':<18}" + "".join(f"{tree + ' (us)':>18}" for tree in trees)
    print(header + ("   change" if len(trees) == 2 else ""))
    for n in names:
        times = [best[tree, n] * 1e6 for tree in trees]
        line = f"{n:<18}" + "".join(f"{t:>18.1f}" for t in times)
        if len(times) == 2:
            line += f"  {times[0] / times[1] - 1:+7.1%}"
        print(line)
    print(f"min over {args.repeats} repeats of the mean of each case's calls per sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())
