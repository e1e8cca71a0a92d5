"""Span tracing of `fockmzi` at its module boundaries, from outside the package.

Run as a script, it executes one `fockmzi` command line in this process with
every public function of every `fockmzi` module wrapped, then writes the spans
and boundary counters as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json -- sensitivity --scheme noon --n 4

A wrapper replaces the function in every `fockmzi` module namespace that
holds it, so `fockmzi.elements.beam_splitter` and the `beam_splitter` that
`fockmzi.cli` imported are both traced.  Spans live in memory until the
command ends.  Counters computed at a boundary (flops and bytes from block
sizes, table bytes, distinct splitter keys) are labelled "computed": they are
derived from array shapes, not measured.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

T_ENTER = time.perf_counter()

LAYER_MODULES = ("fock", "elements", "states", "estimation", "schemes", "lithography", "rosetta", "cli")

# constructions and methods traced besides module-level functions: (module, class, attribute, span name)
CLASS_BOUNDARIES = (
    ("fock", "BlockUnitary", "__init__", "fock.BlockUnitary"),
    ("fock", "BlockObservable", "__init__", "fock.BlockObservable"),
    ("fock", "TwoModeState", "__init__", "fock.TwoModeState"),
    ("rosetta", "QubitRegister", "__init__", "rosetta.QubitRegister"),
    ("elements", "InterferometerPipeline", "evolve", "elements.evolve"),
    ("elements", "InterferometerPipeline", "output_generator", "elements.output_generator"),
)


class Tracer:
    """Spans (id, parent, name, start, end, thread) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.splitter_keys = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, hook=None, callable_arg=False):
        """Return fn recording a span per call; hook(tracer, args, kwargs, result) adds counters.

        With callable_arg, the first argument is a callable that may run on
        worker threads; its spans get this span as their parent.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            if callable_arg:
                args = (self._adopt(sid, args[0]),) + args[1:]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if hook is not None:
                with self._lock:
                    hook(self, args, kwargs, result)
            return result
        return traced

    def _adopt(self, parent_id, fn):
        def adopted(*args, **kwargs):
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent_id]
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = saved
        return adopted


def _hook_apply(tracer, args, kwargs, result):
    state = args[1] if len(args) > 1 else kwargs["state"]
    for n in state.blocks:
        m = n + 1
        tracer.counters["fock.apply.flops_computed"] += 8 * m * m  # complex mat-vec
        tracer.counters["fock.apply.bytes_computed"] += 16 * (m * m + 2 * m)  # matrix + vector in and out


def _hook_beam_splitter(tracer, args, kwargs, result):
    theta, cutoff = args[0], args[1]
    tracer.splitter_keys.add((theta, cutoff))
    # per block: scale the eigenvector columns, then one complex m x m product
    tracer.counters["elements.beam_splitter.flops_computed"] += sum(
        8 * (n + 1) ** 3 + 6 * (n + 1) ** 2 for n in range(cutoff + 1))


def _hook_block_unitary(tracer, args, kwargs, result):
    blocks = args[1] if len(args) > 1 else kwargs["blocks"]
    # the U^dagger U product of the unitarity check, per block
    tracer.counters["fock.BlockUnitary.check_flops_computed"] += sum(8 * (n + 1) ** 3 for n in blocks)


def _hook_write_table(tracer, args, kwargs, result):
    _path, header, rows, footers = args
    text_len = len(",".join(header)) + 1
    text_len += sum(len(",".join(row)) + 1 for row in rows)
    text_len += sum(len(footer) + 3 for footer in footers)
    tracer.counters["cli.write_table.bytes"] += text_len


def _hook_build_setup(tracer, args, kwargs, result):
    tracer.counters["states.cutoff_max"] = max(tracer.counters["states.cutoff_max"], result.cutoff)


HOOKS = {
    "fock.apply": _hook_apply,
    "elements.beam_splitter": _hook_beam_splitter,
    "fock.BlockUnitary": _hook_block_unitary,
    "cli.write_table": _hook_write_table,
    "schemes.build_setup": _hook_build_setup,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules, in every namespace that holds it."""
    import importlib

    modules = {short: importlib.import_module(f"fockmzi.{short}") for short in LAYER_MODULES}
    package_namespaces = [m for name, m in sys.modules.items() if name == "fockmzi" or name.startswith("fockmzi.")]
    replacements = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            replacements[obj] = tracer.wrap(name, obj, HOOKS.get(name), callable_arg=(name == "cli.grid_map"))
    for namespace in package_namespaces:
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(namespace, attr, replacements[obj])
    for short, cls_name, attr, name in CLASS_BOUNDARIES:
        cls = getattr(modules[short], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), HOOKS.get(name)))


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part its child spans cover.

    Spans are (id, parent, name, start, end, ...).  Where spans on several
    threads are open at once (the `grid_map` pool), each instant is split
    equally among the open spans that have no open child, so self times
    always sum to the time covered by the root spans.
    """
    parent_of = {s[0]: s[1] for s in spans}
    events = []
    for sid, _parent, _name, start, end, *_ in spans:
        events.append((start, 0, sid))
        events.append((end, 1, -sid))  # at equal times: starts first, then ends innermost first
    events.sort()
    open_spans, open_children, active = set(), defaultdict(int), set()
    self_time = defaultdict(float)
    prev = None
    for t, kind, key in events:
        if active:
            share = (t - prev) / len(active)
            for a in active:
                self_time[a] += share
        prev = t
        sid = key if kind == 0 else -key
        parent = parent_of[sid]
        if kind == 0:
            open_spans.add(sid)
            active.add(sid)
            if parent in open_spans:
                open_children[parent] += 1
                active.discard(parent)
        else:
            open_spans.discard(sid)
            active.discard(sid)
            if parent in open_spans:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    active.add(parent)
    return {s[0]: self_time[s[0]] for s in spans}


def tree_problems(spans, self_time: dict[int, float]) -> list[str]:
    """A well-formed span tree: every parent present, children inside parents, self time >= 0."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, parent, name, start, end, *_ in spans:
        if end < start:
            problems.append(f"span {sid} {name} ends before it starts")
        if self_time[sid] < -1e-9:
            problems.append(f"span {sid} {name} has negative self time {self_time[sid]}")
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"span {sid} {name} has missing parent {parent}")
            continue
        _, _, pname, pstart, pend, *_ = by_id[parent]
        if start < pstart or end > pend:
            problems.append(f"span {sid} {name} lies outside its parent {parent} {pname}")
    return problems


def main(argv: list[str]) -> int:
    out_path, separator, cli_argv = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: tracer.py OUT.json -- FOCKMZI_ARGS...")
    import fockmzi.cli  # noqa: F401  (the import is start-up, not traced work)

    t_imported = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    code = sys.modules["fockmzi.cli"].main(cli_argv)
    sys.stdout.flush()
    counters = dict(tracer.counters)
    counters["splitter_keys"] = len(tracer.splitter_keys)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"t_enter": T_ENTER, "t_imported": t_imported, "exit": code,
                   "counters": counters, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
