"""Per-layer tracing of fedsim from outside the package.

Each traced public function is replaced, for the duration of a ``Tracer``
context, at every name a fedsim module resolves it by: ``sim`` imports
``local_train``, ``aggregate`` and the evaluators by name, ``apply_trigger``
is bound in ``data``, ``model`` and ``attacks``, and ``defenses`` reaches
``linalg.*`` through the module object. The wrapper records a span (name,
id, parent id, thread, start, end) on exit; spans stay in memory until the
operation ends.

Parents come from a thread-local span stack. ``sim.run_round`` hands client
training to a ``ThreadPoolExecutor`` when ``parallel_clients`` is set, so the
executor ``sim`` resolves is replaced by one whose tasks adopt the submitting
thread's open span as their parent. A span's self time is its duration minus
the union of its children's intervals, which stays correct when children run
concurrently on several threads.
"""

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# Layer functions timed with spans: "<module>.<function>" under fedsim.
TIMED = (
    "sim.build_state",
    "sim.run_round",
    "data.gen_blobs",
    "data.dirichlet_partition",
    "data.poison_dataset",
    "data.edge_case_pool",
    "model.init_params",
    "model.local_train",
    "model.evaluate_acc",
    "model.evaluate_asr",
    "attacks.malicious_local_train",
    "defenses.aggregate",
    "defenses.multi_krum",
    "defenses.weak_dp",
    "defenses.pairwise_scores",
    "defenses.rcc_filter",
    "linalg.dispersion",
    "linalg.cosine_distance",
    "config.build_config",
    "cli.main",
)

# Hot helpers that are only counted: a span each would dominate their cost.
COUNTED = ("data.apply_trigger", "linalg.normalize", "linalg.as_vector")


def _local_train_rows(args, kwargs, result, counts):
    dataset = args[2] if len(args) > 2 else kwargs["dataset"]
    tspec = args[3] if len(args) > 3 else kwargs["tspec"]
    counts["model.local_train.rows"] += len(dataset) * tspec.local_epochs


def _aggregate_outcome(args, kwargs, result, counts):
    updates = args[0] if args else kwargs["updates"]
    counts["defenses.submitted"] += len(updates)
    counts["defenses.accepted"] += len(result.accepted)
    diag = result.diagnostics
    counts["defenses.fallback"] += int(diag is not None and diag.fallback)


# Extra counts taken from a call's arguments and result.
HOOKS = {
    "model.local_train": _local_train_rows,
    "defenses.aggregate": _aggregate_outcome,
}


class _ThreadState(threading.local):
    """Per-thread span stack, finished spans and counters."""

    def __init__(self, tracer):
        self.stack = []
        self.adopted = None  # parent for spans opened on an empty stack
        self.spans = []
        self.counts = Counter()
        with tracer._lock:
            tracer._threads.append((self.spans, self.counts))


class Tracer:
    """Wraps fedsim's layer functions while active and collects spans per operation.

    Use as a context manager around one or more operations; call
    ``begin_op`` before and ``end_op`` after each one.
    """

    def __init__(self, timed=TIMED, counted=COUNTED, hooks=None, package="fedsim"):
        self.timed = tuple(timed)
        self.counted = tuple(counted)
        self.hooks = HOOKS if hooks is None else hooks
        self.package = package
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)
        self._state = _ThreadState(self)
        self._restore = []

    # -- patching -------------------------------------------------------------

    def _modules(self):
        pre = self.package + "."
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(pre))
        ]

    def _replace_everywhere(self, original, replacement):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def __enter__(self):
        try:
            for name in self.timed + self.counted:
                mod_name, func = name.rsplit(".", 1)
                original = getattr(sys.modules[f"{self.package}.{mod_name}"], func)
                if name in self.timed:
                    wrapper = self._span_wrapper(name, original, self.hooks.get(name))
                else:
                    wrapper = self._count_wrapper(name, original)
                self._replace_everywhere(original, wrapper)
            sim = sys.modules.get(f"{self.package}.sim")
            if sim is not None and getattr(sim, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._restore.append((sim, "ThreadPoolExecutor", ThreadPoolExecutor))
                sim.ThreadPoolExecutor = self.executor_class()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        state = self._state
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else state.adopted
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                state.spans.append((name, sid, parent, threading.get_ident(), t0, t1))
            if hook is not None:
                hook(args, kwargs, result, state.counts)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        state = self._state
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            state.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def current_span(self):
        """Id of the innermost open span on this thread, or the adopted parent."""
        stack = self._state.stack
        return stack[-1] if stack else self._state.adopted

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's open span."""
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current_span()

                def run():
                    state = tracer._state
                    saved, state.adopted = state.adopted, parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        state.adopted = saved

                return super().submit(run)

        return PropagatingExecutor

    # -- per-operation collection ---------------------------------------------

    def begin_op(self):
        """Drop what earlier operations left and start a new span set."""
        state = self._state
        state.spans, state.counts = [], Counter()
        with self._lock:
            self._threads = [(state.spans, state.counts)]

    def end_op(self):
        """Return (spans, counts) recorded since ``begin_op``, across all threads."""
        with self._lock:
            states = list(self._threads)
        spans, counts = [], Counter()
        for thread_spans, thread_counts in states:
            spans.extend(thread_spans)
            counts.update(thread_counts)
        spans.sort(key=lambda s: s[4])
        return spans, counts


def self_times(spans) -> dict:
    """Sum of self time in seconds per span name.

    ``spans`` holds (name, id, parent_id, thread, start, end) tuples. Self
    time is the span's duration minus the union of its direct children's
    intervals, clipped to the span; children on other threads may overlap.
    """
    children = defaultdict(list)
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = defaultdict(float)
    for name, sid, _, _, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] += (t1 - t0) - covered
    return dict(out)


def layer_metrics(spans, counts) -> dict:
    """Per-layer values for one operation: ``.ms`` self time, ``.calls`` and extras."""
    selfs = self_times(spans)
    calls = Counter(s[0] for s in spans)
    out = {}
    for name, secs in selfs.items():
        out[f"{name}.ms"] = secs * 1000.0
    for name, n in calls.items():
        out[f"{name}.calls"] = n
    out.update(counts)
    submitted = counts.get("defenses.submitted", 0)
    rounds = calls.get("defenses.aggregate", 0)
    out["defenses.accept_share"] = counts.get("defenses.accepted", 0) / submitted if submitted else 0.0
    out["defenses.fallback_share"] = counts.get("defenses.fallback", 0) / rounds if rounds else 0.0
    return out


@contextlib.contextmanager
def stopwatch(module, attr, samples):
    """Append the wall time in seconds of every call to ``module.attr`` to ``samples``.

    Only the one name is replaced; used where the CLI owns the loop being timed.
    """
    original = getattr(module, attr)
    clock = time.perf_counter

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(clock() - t0)

    setattr(module, attr, timed)
    try:
        yield samples
    finally:
        setattr(module, attr, original)
