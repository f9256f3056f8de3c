"""In-memory span tracer that wraps aqecsim's public functions from outside.

Spans are recorded at each layer boundary the benchmark cares about: name,
start, end, parent span and op id.  Wrapping is done by replacing module
attributes, including names another module imported directly (``cli`` imports
``partial_trace`` and ``load_config`` by name; ``solver`` and ``tomography``
import ``validate_state``).  ``uninstall`` puts the originals back, so an
untraced pass runs the program's own functions with no wrapper at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


# Layer group -> (owning module, function name, extra modules holding the
# same function under the same name).  Every wrapped function belongs to one
# group, so per-group self times plus the op spans' self time add up to the
# op time.
WRAPPED = {
    "config.load": [("config", "load_config", ("cli",))],
    # the two Hamiltonian constructors the CLI paths call; the ones they call
    # in turn run inside these spans
    "model.hamiltonian": [("model", "build_rotating_full_hamiltonian", ()),
                          ("model", "build_static_hamiltonian", ())],
    "model.collapse": [("model", "collapse_operators", ())],
    "solver.evolve": [("solver", "evolve", ())],
    "solver.observable": [("solver", "observable_series", ())],
    "solver.sweep": [("solver", "sweep_chevron", ())],
    "solver.fringe": [("solver", "fringe_frequency", ())],
    "operators.partial_trace": [("operators", "partial_trace", ("cli", "analysis"))],
    "operators.validate": [("operators", "validate_state", ("solver", "tomography"))],
    "analysis.metrics": [("analysis", "error_population", ()),
                         ("analysis", "coherence_metric", ())],
    "analysis.fit": [("analysis", "fit_exponential", ())],
    "tomography.sample": [("tomography", "simulate_counts", ())],
    "tomography.mle": [("tomography", "mle_reconstruct", ())],
    "tomography.fidelity": [("tomography", "fidelity", ())],
}

OP = "op"  # root span of one benchmark operation; its self time is cli.self_s


class Tracer:
    """Collects spans while installed; keeps them in memory until ``dump``."""

    def __init__(self, modules):
        self.modules = modules  # short name -> imported aqecsim module
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = {}
        self._stack = []
        self._op_id = None
        self._originals = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """One benchmark op: the root span of everything it calls."""
        self._op_id = op_id
        idx = self._open(OP)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = None

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, group, fn):
        tracer = self
        observe = _OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id is None:  # oracle or check code, not an op
                return fn(*args, **kwargs)
            idx = tracer._open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, result)
            return result

        return wrapper

    def install(self):
        if self._originals:
            return
        for group, entries in WRAPPED.items():
            for owner, name, aliases in entries:
                fn = getattr(self.modules[owner], name)
                wrapped = self._wrap(group, fn)
                for mod_name in (owner,) + aliases:
                    mod = self.modules[mod_name]
                    if getattr(mod, name) is not fn:
                        raise RuntimeError(f"{mod_name}.{name} is not "
                                           f"{owner}.{name}; tracer map is stale")
                    self._originals.append((mod, name, fn))
                    setattr(mod, name, wrapped)

    def uninstall(self):
        for mod, name, fn in reversed(self._originals):
            setattr(mod, name, fn)
        self._originals = []

    # -- results -------------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def call_counts(self):
        """Spans per group, i.e. calls into the group's functions."""
        counts = {}
        for s in self.spans:
            counts[s[0]] = counts.get(s[0], 0) + 1
        return counts

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def _observe_evolve(tracer, traj):
    tracer.count("rhs_evals", int(traj.meta.get("nfev", 0)))
    tracer.count("snapshots", len(traj))


def _observe_mle(tracer, result):
    tracer.count("mle_iters", int(result.n_iter))
    tracer.count("mle_converged", int(bool(result.converged)))


_OBSERVERS = {"evolve": _observe_evolve, "mle_reconstruct": _observe_mle}
