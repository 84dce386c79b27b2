"""Outside-in layer trace of one ``cycleflow`` process.

    python3 perfbench/tracer.py SPANS.json verify model.json --format json

wraps the public callables of each ``cycleflow`` module, runs
``cycleflow.cli.main`` with the remaining arguments and, once it
returns or raises, writes every span to SPANS.json.  Nothing under
``src/`` changes: the wrappers are installed from outside, on every
module attribute that holds the wrapped object (``cli`` imports
``load_model`` and ``run_suite`` by name, for instance).  A callable
that no longer exists is skipped.

``aggregate`` turns span files into ``<module>.<callable>.<quantity>``
metrics: ``s`` (inclusive seconds), ``self_s`` (inclusive minus the
time of the spans it caused), ``calls`` and the work counts read from
return values.  This module imports no numpy, so that ``-X importtime``
of a traced child sees the package's own imports.
"""

import functools
import json
import sys
import time


def _identity_suite_counts(args, kwargs, result):
    return {"pairs": result.n_pairs, "base_sets": result.n_base_sets}


def _cycle_stationary_counts(args, kwargs, result):
    base = args[1] if len(args) > 1 else kwargs["base"]
    return {"base": int(base)}


def _markov_batch_counts(args, kwargs, result):
    return {"steps": int(result[0])}


def _split_batch_counts(args, kwargs, result):
    # status 2: the record buffer was too small and the caller replays
    return {"steps": int(result[1]), "replays": int(result[3] == 2)}


def _split_chain_counts(args, kwargs, result):
    return {"occupation_mb": result.occupations.nbytes / 1e6}


# (module, callable, work counts read from the return value)
TARGETS = (
    ("cli", "main", None),
    ("modelio", "load_model", None),
    ("modelio", "model_hash", None),
    ("report", "canonical_json", None),
    ("report", "render", None),
    ("suite", "run_suite", None),
    ("measure", "identity_suite", _identity_suite_counts),
    ("measure", "hitting_profile", None),
    ("measure", "check_preserving", None),
    ("_kernels", "hitting_times", None),
    ("_kernels", "backward_hits", None),
    ("_kernels", "excursion_mass", None),
    ("markov", "class_structure", None),
    ("markov", "cycle_occupation", None),
    ("markov", "cycle_stationary", _cycle_stationary_counts),
    ("markov", "stationary_leftnull", None),
    ("markov", "exchange_residual", None),
    ("markov", "convex_decomposition", None),
    ("markov", "simulate_cycle_estimator", None),
    ("_kernels", "markov_cycle_batch", _markov_batch_counts),
    ("harris", "HarrisModel.__init__", None),
    ("harris", "BridgeLaw.total_mass", None),
    ("harris", "harris_conditions", None),
    ("harris", "simulate_split_chain", _split_chain_counts),
    ("_kernels", "split_chain_batch", _split_batch_counts),
    ("harris", "regen_distribution_gof", None),
    ("_stats", "RatioAccumulator.add", None),
    ("_stats", "RatioAccumulator.estimate", None),
)

def metric_prefix(module_name, qualname):
    # metric names start with a letter: _kernels.x is reported as kernels.x
    return module_name.lstrip("_") + "." + qualname


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, counts)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, time.perf_counter(), parent, None)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            counts = counter(args, kwargs, result) if counter else None
            spans[index] = (name, start, end, parent, counts)
            return result

        return traced

    def install(self):
        """Wrap every target that exists in the loaded package."""
        import cycleflow.cli  # noqa: F401  (loads every layer)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "cycleflow" or key.startswith("cycleflow.")]
        for module_name, qualname, counter in TARGETS:
            module = sys.modules.get("cycleflow." + module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                continue
            traced = self.wrap(metric_prefix(module_name, qualname), target,
                               counter)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is target:
                        setattr(holder, key, traced)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def aggregate(span_lists):
    """Per-layer metrics summed over several processes' spans.

    Every target yields ``s``, ``self_s`` and ``calls`` (zero when it
    never ran or no longer exists) plus its work counts;
    ``markov.cycle_stationary`` yields ``distinct_bases`` instead of a
    per-call base, and each ``steps`` count a ``steps_per_s`` rate.
    """
    out = {}
    for module_name, qualname, _ in TARGETS:
        name = metric_prefix(module_name, qualname)
        out[name + ".s"] = out[name + ".self_s"] = 0.0
        out[name + ".calls"] = 0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        bases = set()
        for i, (name, start, end, parent, counts) in enumerate(spans):
            out[name + ".s"] += end - start
            out[name + ".self_s"] += end - start - child_time[i]
            out[name + ".calls"] += 1
            for key, value in (counts or {}).items():
                if key == "base":
                    bases.add(value)
                else:
                    out[name + "." + key] = out.get(name + "." + key, 0) + value
        out["markov.cycle_stationary.distinct_bases"] = (
            out.get("markov.cycle_stationary.distinct_bases", 0) + len(bases))
    for key in [k for k in out if k.endswith(".steps")]:
        seconds = out[key[:-len("steps")] + "s"]
        out[key + "_per_s"] = out[key] / seconds if seconds else 0.0
    return out


def import_times(stderr_text):
    """(cycleflow, scipy) import seconds from ``-X importtime`` output:
    the cumulative time of the top-level ``cycleflow`` imports and the
    self time of every scipy module."""
    cycleflow_us = scipy_us = 0
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cumulative, label = int(fields[0]), int(fields[1]), fields[2]
        module = label.strip()
        top_level = len(label) - len(label.lstrip()) == 1
        if top_level and module.split(".")[0] == "cycleflow":
            cycleflow_us += cumulative
        if module.split(".")[0] == "scipy":
            scipy_us += own
    return cycleflow_us / 1e6, scipy_us / 1e6


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from cycleflow import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
