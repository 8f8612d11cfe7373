"""Outside-in tracer for one simpdelta CLI process.

Usage: python3 perfbench/tracer.py OUT.json -- <simpdelta arguments>

The package must be importable (run.py puts ``src`` on PYTHONPATH).  The
tracer imports the package, wraps each layer's public functions from
outside it, runs ``simpdelta.cli.main`` on the arguments, and writes what
it kept in memory to OUT.json when the CLI returns.  The package itself is
not modified.

A span is one call of a wrapped function.  Spans are kept aggregated by
name, each with its call count and self time: the time of the call minus
the time of the wrapped calls made inside it.  The tracer's own
bookkeeping is charged to no span.
Deterministic counters are written under ``counters``, apart from the
spans.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter
from time import perf_counter

# (module, attribute) of every wrapped function.  A dotted attribute is a
# method, wrapped on the class that defines it.  The span name is the
# module and the last part of the attribute, so both ``basis`` methods
# report as ``models.basis``.
SPANS = [
    ("words", "normalize"),
    ("transforms", "EMTransform.terms"),
    ("transforms", "EMTransform.reduced"),
    ("models", "evaluate_em"),
    ("models", "Model.apply_word"),
    ("models", "ModuleModel.basis"),
    ("models", "AlgebraModel.basis"),
    ("gf2", "F2Matrix.rank"),
    ("gf2", "F2Matrix.kernel_basis"),
    ("gf2", "F2Matrix.solve"),
    ("gf2", "reduced_echelon"),
    ("homology", "associated_complex"),
    ("homology", "normalized_complex"),
    ("homology", "same_class"),
    ("homology", "normalized_subspace"),
    ("operations", "delta_i"),
    ("operations", "delta_via_em"),
    ("operations", "delta_report"),
    ("relations", "check_relation"),
    ("cli", "main"),
]


class Tracer:
    def __init__(self):
        # A frame is [span name, time spent in wrapped children,
        # whether a reduced() span read raw terms].
        self.stack = [[None, 0.0, False]]
        self.spans: dict[str, list] = {}  # name -> [calls, self time]
        self.counters: Counter = Counter()
        self.normalize_seen: set = set()
        self.eliminated = weakref.WeakSet()
        self.unwrapped_rank = None

    def span(self, name, fn, hook=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            frame = [name, 0.0, False]
            parent = stack[-1]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[1]
                if ok and hook is not None:
                    hook(args, result, frame, parent)
                parent[1] += perf_counter() - t_in

        return wrapper

    # -- hooks: counters measured where the work happens ------------------

    def on_normalize(self, args, result, frame, parent):
        key = (args[0].factors, args[1])
        if key in self.normalize_seen:
            self.counters["words.normalize.reused"] += 1
        else:
            self.normalize_seen.add(key)

    def on_terms(self, args, result, frame, parent):
        # Only the terms that reduced() reads count as raw terms; a
        # reduced() call that reads none was answered from its cache.
        if parent[0] == "transforms.reduced":
            self.counters["transforms.raw_terms"] += len(result)
            parent[2] = True

    def on_reduced(self, args, result, frame, parent):
        if frame[2]:
            self.counters["transforms.reduced_terms"] += len(result)

    def on_basis(self, args, result, frame, parent):
        if len(result) > self.counters["models.basis.max_dim"]:
            self.counters["models.basis.max_dim"] = len(result)

    def on_matrix_call(self, args, result, frame, parent):
        # Elimination runs on the first public call of each matrix.
        matrix = args[0]
        if matrix not in self.eliminated:
            self.eliminated.add(matrix)
            self.counters["gf2.eliminated_columns"] += matrix.ncols
            self.counters["gf2.eliminated_rank"] += self.unwrapped_rank(matrix)

    def on_check_relation(self, args, result, frame, parent):
        self.counters["relations.cases"] += result.cases

    # -- installation -----------------------------------------------------

    def install(self):
        import simpdelta.cli  # noqa: F401  (imports every layer)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "simpdelta" or name.startswith("simpdelta.")
        }
        hooks = {
            "words.normalize": self.on_normalize,
            "transforms.terms": self.on_terms,
            "transforms.reduced": self.on_reduced,
            "models.basis": self.on_basis,
            "gf2.rank": self.on_matrix_call,
            "gf2.kernel_basis": self.on_matrix_call,
            "gf2.solve": self.on_matrix_call,
            "relations.check_relation": self.on_check_relation,
        }
        self.unwrapped_rank = modules["simpdelta.gf2"].F2Matrix.rank
        for module_name, attr in SPANS:
            module = modules[f"simpdelta.{module_name}"]
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.span(name, original, hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = self.span(name, original, hooks.get(name))
            # Other layers import the function by name: replace every binding.
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        self._count_constructions(modules)

    def _count_constructions(self, modules):
        counters = self.counters
        word_cls = modules["simpdelta.words"].Word
        word_post_init = word_cls.__post_init__

        def post_init(word):
            counters["words.Word.created"] += 1
            word_post_init(word)

        word_cls.__post_init__ = post_init

        matrix_cls = modules["simpdelta.gf2"].F2Matrix
        matrix_init = matrix_cls.__init__

        def init(matrix, nrows, columns):
            matrix_init(matrix, nrows, columns)
            counters["gf2.matrices"] += 1
            counters["gf2.columns"] += matrix.ncols
            if matrix.ncols > counters["gf2.max_columns"]:
                counters["gf2.max_columns"] = matrix.ncols

        matrix_cls.__init__ = init

    def dump(self) -> dict:
        return {
            "spans": {name: {"calls": calls, "self_s": self_s}
                      for name, (calls, self_s) in self.spans.items()},
            "counters": dict(self.counters),
        }


def main() -> int:
    out_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print("usage: tracer.py OUT.json -- <simpdelta arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    import simpdelta.cli

    try:
        return simpdelta.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
