"""Span tracing for the traced benchmark run.

The tracer wraps functions of the `cocodes` modules from outside the
package: every module binds the functions it imports under its own
name (`construct.is_ccc`, `cli.zccc_zone`, `cocodes.execute`, ...), so
a wrapper is installed at every binding site that holds the original
function object, and methods are replaced on their class.  `uninstall`
puts the originals back, so untraced passes in the same process run the
plain code.

A span records (id, parent id, op id, name, start ns, end ns, tag);
the op id is the span id of the benchmark op that caused it.  Self time
is a span's duration minus the time its child spans cover; time spent
in functions that are not wrapped counts towards the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# Functions traced with spans, by module: (attribute path, metric name).
# The list is the public API of each module plus the functions the
# per-layer metrics name; hot scalar helpers (CycloNum arithmetic,
# common_order, scalar_is_zero) stay unwrapped so tracing does not
# dominate the pass.
SPANNED = {
    "cyclo": [("CycloNum.is_zero", "is_zero"), ("CycloNum.reduced", "reduced")],
    "model": [("canonical_form", "canonical_form"),
              ("equal_up_to_indexing", "equal_up_to_indexing"),
              ("energy", "energy"), ("set_energy", "set_energy"),
              ("singleton_family", "singleton_family")],
    "corr": [("acorr", "acorr"), ("pcorr", "pcorr"),
             ("corr_profile", "corr_profile"), ("corr_sum", "corr_sum"),
             ("corr_sum_profile", "corr_sum_profile"),
             ("is_complementary_set", "is_complementary_set"),
             ("is_ccc", "is_ccc"), ("is_n_co_sf", "is_n_co_sf"),
             ("zccc_zone", "zccc_zone"), ("check_size_bound", "check_size_bound")],
    "matrices": [("dft_matrix", "dft_matrix"), ("hadamard_matrix", "hadamard_matrix"),
                 ("identity_matrix", "identity_matrix"),
                 ("custom_matrix", "custom_matrix"), ("MatrixSpec.build", "build"),
                 ("parse_matrix_shorthand", "parse_matrix_shorthand")],
    "construct": [("connect", "connect"), ("kron_expand", "kron_expand"),
                  ("entrywise", "entrywise"), ("generate_cosf", "generate_cosf"),
                  ("elongate_cosf", "elongate_cosf"), ("cosf_to_ccc", "cosf_to_ccc"),
                  ("ccc_from_unitary", "ccc_from_unitary"),
                  ("enlarge_ccc", "enlarge_ccc")],
    "planner": [("plan", "plan"), ("execute", "execute"),
                ("constructible", "constructible"), ("run_check", "run_check")],
    "cli": [("main", "main"), ("family_to_doc", "family_to_doc"),
            ("family_from_doc", "family_from_doc"),
            ("recipe_to_doc", "recipe_to_doc"), ("recipe_from_doc", "recipe_from_doc"),
            ("_load_json", "load_json"), ("_dump_json", "dump_json")],
}

# Constructors that are only counted: they run hundreds of thousands of
# times per pass, and a span each would cost more than the work.
COUNTED = {
    "cyclo": [("CycloNum.__init__", "CycloNum.init")],
    "model": [("Sequence.__init__", "Sequence.init")],
}

MODULES = tuple(SPANNED)


class Tracer:
    """In-memory span recorder; records only while `active` is set."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.calls = Counter()
        self.self_ns = Counter()
        self.bytes_rw = 0
        self._stack = []  # [id, parent, name, tag, start ns, child ns]
        self._next_id = 0
        self._op_id = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str, tag=None) -> None:
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1][0] if self._stack else 0
        if not self._stack:
            self._op_id = sid
        self._stack.append([sid, parent, name, tag, time.perf_counter_ns(), 0])

    def end(self) -> None:
        t1 = time.perf_counter_ns()
        sid, parent, name, tag, t0, child = self._stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        if self._stack:
            self._stack[-1][5] += dur
        self.spans.append((sid, parent, self._op_id, name, t0, t1, tag))

    def _spanned(self, name, fn, tag_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.begin(name, tag_of(args) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _bytes_counted(self, fn, before: bool):
        """Wrapper adding the size of the file a JSON helper reads (size
        before the call) or writes (size after the call)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            if tracer.active and before and os.path.exists(path):
                tracer.bytes_rw += os.path.getsize(path)
            out = fn(path, *args, **kwargs)
            if tracer.active and not before:
                tracer.bytes_rw += os.path.getsize(path)
            return out
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, package: str = "cocodes") -> None:
        """Wrap every listed function at every binding site in the
        package's modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for path, metric in SPANNED[short]:
                name = f"{short}.{metric}"
                tag_of = _mode_of_first if name == "corr.corr_profile" else None
                self._replace(mod, path, modules,
                              lambda fn, n=name, t=tag_of: self._spanned(n, fn, t))
            for path, metric in COUNTED.get(short, []):
                name = f"{short}.{metric}"
                self._replace(mod, path, modules,
                              lambda fn, n=name: self._counted(n, fn))
        cli = sys.modules[f"{package}.cli"]
        self._replace(cli, "_load_json", modules,
                      lambda fn: self._bytes_counted(fn, before=True))
        self._replace(cli, "_dump_json", modules,
                      lambda fn: self._bytes_counted(fn, before=False))

    def _replace(self, mod, path, modules, make):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            orig = owner.__dict__[attr]
            setattr(owner, attr, make(orig))
            self._undo.append((owner, attr, orig))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
                    self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- results -------------------------------------------------------------

    def fallback_share(self) -> tuple:
        """(exact corr_profile spans with acorr children, exact
        corr_profile spans), read from the parent ids."""
        acorr_parents = {s[1] for s in self.spans if s[3] == "corr.acorr"}
        exact = [s[0] for s in self.spans
                 if s[3] == "corr.corr_profile" and s[6] == "exact"]
        return sum(1 for sid in exact if sid in acorr_parents), len(exact)


def _mode_of_first(args):
    return getattr(args[0], "mode", None) if args else None

