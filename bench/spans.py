"""Layer tracing installed from outside the package.

``Tracer.install_spans`` wraps public functions of ``extremal_lie`` in spans
and rebinds every module attribute that held the original, so a name
imported with ``from .liealg import extremal_form`` is traced too.  A span
records its id, its parent's id, its key ``"<layer>.<name>"`` (the layer is
the module name) and its start and end.  ``Echelon.insert`` outcomes and
widths are counted next to its span.  ``Tracer.install_counters`` only
counts calls of ``Field`` arithmetic, the hottest entry point: tens of
millions of calls, too many to time next to the spans, so they are counted
in a process of their own whose times are not used.  A target that no longer
exists is listed in ``absent`` and the metrics built on it are left out.

``analyse`` turns recorded spans into per-layer self times and per-key
inclusive times; it is a pure function so it can be tested on a synthetic
span tree.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "extremal_lie"

# (module, attribute path, span key).  The layer of a key is its first part.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "cached_integer_table", "cli.cache"),
    ("rootdata", "root_system", "rootdata.root_system"),
    ("rootdata", "chevalley_constants", "rootdata.constants"),
    ("rootdata", "ChevalleyConstants.integer_table", "rootdata.constants"),
    ("linalg", "Echelon.insert", "linalg.insert"),
    ("linalg", "Echelon.reduce", "linalg.reduce"),
    ("linalg", "Echelon.contains", "linalg.contains"),
    ("linalg", "echelon_from_rows", "linalg.echelon_from_rows"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel", "linalg.kernel"),
    ("linalg", "solve_in_span", "linalg.solve_in_span"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "mat_inverse", "linalg.mat_inverse"),
    ("linalg", "charpoly", "linalg.charpoly"),
    ("nilquot", "sandwich_algebra", "nilquot.sandwich_algebra"),
    ("nilquot", "assoc_dims_via_embedding", "nilquot.assoc_dims"),
    ("nilquot", "_CoverEngine.extend", "nilquot.extend"),
    ("liealg", "LieAlgebra._validate_jacobi", "liealg.jacobi"),
    ("liealg", "subalgebra_generated", "liealg.closure"),
    ("liealg", "ideal_generated", "liealg.closure"),
    ("liealg", "extremal_form", "liealg.extremal_form"),
    ("liealg", "BilinearForm.is_associative", "liealg.assoc"),
    ("liealg", "BilinearForm.radical", "liealg.form_radical"),
    ("liealg", "is_extremal", "liealg.is_extremal"),
    ("liealg", "killing_form", "liealg.killing"),
    ("liealg", "structural_subspaces", "liealg.radical_chain"),
    ("liealg", "sandwich_span_check", "liealg.radical_chain"),
    ("liealg", "matrix_lie_algebra", "liealg.matrix_algebra"),
    ("chevalley", "chevalley_algebra", "chevalley.algebra"),
    ("chevalley", "mingen_certify", "chevalley.mingen"),
    ("chevalley", "natural_representation", "chevalley.natural_rep"),
    ("chevalley", "extremal_spanning_set", "chevalley.spanning"),
    ("chevalley", "root_exponential", "chevalley.root_exp"),
    ("chevalley", "exp_automorphism", "chevalley.exp_automorphism"),
    ("chevalley", "verify_generation", "chevalley.generation_check"),
    ("chevalley", "long_root_extremality_check", "chevalley.extremality_sweep"),
    ("rootgroups", "verify_abstract_root_properties", "rootgroups.root_properties"),
    ("rootgroups", "strongcomm_check", "rootgroups.strongcomm"),
    ("rootgroups", "projective_line_check", "rootgroups.projective_line"),
    ("rootgroups", "chain_nonexistence_probe", "rootgroups.chain_probe"),
    ("smallgen", "normalize", "smallgen.normalize"),
    ("smallgen", "build_M", "smallgen.build_M"),
    ("smallgen", "verify_3gen_structure", "smallgen.verify_structure"),
)

# Field methods counted (no span) as scalars.ops, and the zero test
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")

# layers that own spans; their self times add up to the traced root spans
LAYERS = ("cli", "rootdata", "linalg", "nilquot", "liealg", "chevalley", "rootgroups", "smallgen")

# metric -> the span keys, counters or wrapped attributes it is built from;
# a metric whose source was not found at install time is left out
METRIC_SOURCES = {
    "cli.cache_s": ("cli.cache",),
    "cli.cache_fill_s": ("cli.cache",),
    "rootdata.constants_s": ("rootdata.constants",),
    "rootdata.root_system_s": ("rootdata.root_system",),
    "scalars.ops": ("scalars.ops",),
    "scalars.is_zero": ("scalars.is_zero",),
    "linalg.insert_calls": ("linalg.insert",),
    "linalg.insert_pivots": ("linalg.insert",),
    "linalg.insert_yield": ("linalg.insert",),
    "linalg.reduce_calls": ("linalg.reduce",),
    "linalg.max_width": ("linalg.insert",),
    "nilquot.extend_calls": ("nilquot.extend",),
    "nilquot.extend_s": ("nilquot.extend",),
    "nilquot.extend_s_max": ("nilquot.extend",),
    "nilquot.rows": ("nilquot.extend", "linalg.insert"),
    "nilquot.rank": ("nilquot.extend",),
    "nilquot.row_yield": ("nilquot.extend", "linalg.insert"),
    "nilquot.max_block": ("nilquot.extend", "linalg.insert"),
    "nilquot.basis_dim": ("nilquot.extend",),
    "liealg.jacobi_s": ("liealg.jacobi",),
    "liealg.jacobi_calls": ("liealg.jacobi",),
    "liealg.closure_s": ("liealg.closure",),
    "liealg.closure_calls": ("liealg.closure",),
    "liealg.extremal_form_s": ("liealg.extremal_form",),
    "liealg.assoc_s": ("liealg.assoc",),
    "liealg.assoc_calls": ("liealg.assoc",),
    "liealg.is_extremal_s": ("liealg.is_extremal",),
    "liealg.is_extremal_calls": ("liealg.is_extremal",),
    "liealg.killing_s": ("liealg.killing",),
    "liealg.radical_chain_s": ("liealg.radical_chain",),
    "liealg.matrix_algebra_s": ("liealg.matrix_algebra",),
    "chevalley.mingen_s": ("chevalley.mingen",),
    "chevalley.natural_rep_s": ("chevalley.natural_rep",),
    "chevalley.spanning_s": ("chevalley.spanning",),
    "chevalley.root_exp_calls": ("chevalley.root_exp",),
    "chevalley.root_exp_s": ("chevalley.root_exp",),
    "chevalley.generation_checks": ("chevalley.generation_check",),
    "rootgroups.exp_builds": ("chevalley.exp_automorphism",),
}


def layer_of(key):
    return key.split(".", 1)[0]


class Tracer:
    """Spans or counters of one process: ``install_spans`` or
    ``install_counters`` once, ``uninstall`` to undo."""

    def __init__(self):
        self.spans = []  # (id, parent id, key, start, end, outermost of its key)
        self._stack = []
        self._active = defaultdict(int)  # key -> open spans of that key
        self._next = 0
        self.field_ops = [0]
        self.field_zero = [0]
        self.counts = defaultdict(int)
        self.absent = []  # targets not found
        self.present = set()  # span keys and counters that were installed
        self._undo = []  # (owner, name, original)

    # -- installation ------------------------------------------------------------

    def install_spans(self):
        """Wrap every target of SPAN_TARGETS in a span."""
        modules, loaded = _modules()
        after = {"linalg.insert": self._on_insert, "nilquot.extend": self._on_extend}
        for mod, path, key in SPAN_TARGETS:
            owner, name = _resolve(modules[mod], path)
            orig = vars(owner).get(name) if owner is not None else None
            if not callable(orig):
                self.absent.append("%s.%s" % (mod, path))
                continue
            self.present.add(key)
            wrapper = self._span_wrapper(key, orig, after.get(key))
            self._rebind(owner, name, orig, wrapper, loaded if owner is modules[mod] else ())
        return self

    def install_counters(self):
        """Count calls of the Field methods of FIELD_OPS and of is_zero."""
        modules, _ = _modules()
        field = getattr(modules["scalars"], "Field", None)
        for name in FIELD_OPS + ("is_zero",):
            orig = vars(field).get(name) if field is not None else None
            if not callable(orig):
                self.absent.append("scalars.Field.%s" % name)
                continue
            key = "scalars.is_zero" if name == "is_zero" else "scalars.ops"
            self.present.add(key)
            cell = self.field_zero if name == "is_zero" else self.field_ops
            self._rebind(field, name, orig, _counted(orig, cell), ())
        return self

    def _rebind(self, owner, name, orig, wrapper, modules):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig and mod is not owner:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []

    def available(self, sources):
        """Whether every source of a metric was found at install time."""
        return all(src in self.present for src in sources)

    # -- recording ---------------------------------------------------------------

    def _span_wrapper(self, key, fn, after=None):
        stack, active, spans, clock = self._stack, self._active, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else None
            depth = active[key]
            active[key] = depth + 1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[key] = depth
                spans.append((sid, parent, key, t0, t1, depth == 0))
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_extend(self, args, new_dim):
        ranks = getattr(args[0], "relation_ranks", None)
        if ranks:
            self.counts["nilquot.rank"] += ranks[-1]
        self.counts["nilquot.basis_dim"] += new_dim

    def _on_insert(self, args, pivot):
        counts = self.counts
        width = getattr(args[0], "width", 0)
        counts["linalg.insert_calls"] += 1
        if pivot is not None:
            counts["linalg.insert_pivots"] += 1
        if width > counts["linalg.max_width"]:
            counts["linalg.max_width"] = width
        if self._active["nilquot.extend"]:
            counts["nilquot.rows"] += 1
            if width > counts["nilquot.max_block"]:
                counts["nilquot.max_block"] = width

    def start_run(self):
        """Zero the counters at the start of the timed part; the time it
        starts separates set-up spans from timed ones."""
        self.counts.clear()
        self.field_ops[0] = self.field_zero[0] = 0
        return time.perf_counter()


def _modules():
    """{module name: module or None} of every module traced, and every loaded
    module of the package (whose aliases of a wrapped function are rebound)."""
    modules = {}
    for mod in {m for m, _, _ in SPAN_TARGETS} | {"scalars"}:
        try:
            modules[mod] = importlib.import_module("%s.%s" % (PACKAGE, mod))
        except ModuleNotFoundError:
            modules[mod] = None
    loaded = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
    return modules, loaded


def _resolve(module, path):
    if module is None:
        return None, path
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, parts[-1]
    return owner, parts[-1]


def _counted(fn, cell):
    """``fn`` with a call counter.  The wrapper takes the method's own
    positional parameters when it has one or two besides ``self``: CPython
    inlines such a call, while a call through ``*args`` costs about as much
    as the ``Field`` method itself."""
    params = list(inspect.signature(fn).parameters.values())
    plain = all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)
    if plain and len(params) == 2:
        def method(self, a):
            cell[0] += 1
            return fn(self, a)
    elif plain and len(params) == 3:
        def method(self, a, b):
            cell[0] += 1
            return fn(self, a, b)
    else:
        def method(self, *args, **kwargs):
            cell[0] += 1
            return fn(self, *args, **kwargs)

    method.__wrapped__ = fn
    return method


# -- analysis --------------------------------------------------------------------


def analyse(spans):
    """Per-layer self time and per-key totals of a set of spans.

    ``spans`` holds (id, parent, key, start, end, outermost) tuples; a span
    whose parent is not in the set counts as a root.  Self time is a span's
    duration minus its children's durations (children of one span never
    overlap in a single thread).  ``incl`` sums only the outermost span of
    each key, so recursion is not counted twice; ``layer_incl`` sums spans
    with no ancestor in the same layer."""
    by_id = {s[0]: s for s in spans}
    spans = [s if s[1] in by_id else s[:1] + (None,) + s[2:] for s in spans]
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[4] - s[3]
    out = {
        "self": defaultdict(float),
        "incl": defaultdict(float),
        "calls": defaultdict(int),
        "max": defaultdict(float),
        "layer_incl": defaultdict(float),
        "roots": 0.0,
    }
    for sid, parent, key, t0, t1, outer in spans:
        d = t1 - t0
        layer = layer_of(key)
        out["self"][layer] += d - child[sid]
        out["calls"][key] += 1
        out["max"][key] = max(out["max"][key], d)
        if outer:
            out["incl"][key] += d
        up = parent
        while up is not None and layer_of(by_id[up][2]) != layer:
            up = by_id[up][1]
        if up is None:
            out["layer_incl"][layer] += d
        if parent is None:
            out["roots"] += d
    return out


def group_under(spans, is_head):
    """Spans grouped under their nearest ancestor-or-self for which
    ``is_head(span)`` holds: {head id: [spans]}, heads in start order.
    Spans with no such ancestor are left out."""
    by_id = {s[0]: s for s in spans}
    head_of = {}

    def find(sid):
        path = []
        while sid in by_id and sid not in head_of and not is_head(by_id[sid]):
            path.append(sid)
            sid = by_id[sid][1]
        head = head_of[sid] if sid in head_of else sid if sid in by_id else None
        for p in path:
            head_of[p] = head
        return head

    groups = {}
    for s in sorted(spans, key=lambda s: s[3]):
        head = find(s[0])
        if head is not None:
            groups.setdefault(head, []).append(s)
    return groups


def by_root(spans):
    """Spans grouped under their root span: {root id: [spans]}, roots in order."""
    return group_under(spans, lambda s: s[1] is None)


# -- metrics ---------------------------------------------------------------------


def layer_metrics(tracer, run_start, wall):
    """Per-layer metrics of a run of ``install_spans``: the timed part (spans
    started at ``run_start`` or later; counters reset by
    ``Tracer.start_run``), plus the set-up spans for
    ``cli.cache_fill_s`` and ``rootdata.constants_s``.  ``wall`` is the traced
    wall time of the timed part.  Metrics whose source is absent are left out."""
    run = [s for s in tracer.spans if s[3] >= run_start]
    a = analyse(run)
    setup = analyse([s for s in tracer.spans if s[3] < run_start])
    c = tracer.counts
    key_of = {s[0]: s[2] for s in run}
    exp_builds = sum(
        1 for s in run
        if s[2] == "chevalley.exp_automorphism" and layer_of(key_of.get(s[1], "")) == "rootgroups"
    )
    m = {"%s.self_s" % layer: a["self"][layer] for layer in LAYERS}
    m.update({
        "cli.cache_s": a["incl"]["cli.cache"],
        "cli.cache_fill_s": setup["incl"]["cli.cache"],
        "rootdata.constants_s": a["incl"]["rootdata.constants"] + setup["incl"]["rootdata.constants"],
        "rootdata.root_system_s": a["incl"]["rootdata.root_system"],
        "linalg.insert_calls": c["linalg.insert_calls"],
        "linalg.insert_pivots": c["linalg.insert_pivots"],
        "linalg.insert_yield": _ratio(c["linalg.insert_pivots"], c["linalg.insert_calls"]),
        "linalg.reduce_calls": a["calls"]["linalg.reduce"],
        "linalg.max_width": c["linalg.max_width"],
        "nilquot.extend_calls": a["calls"]["nilquot.extend"],
        "nilquot.extend_s": a["incl"]["nilquot.extend"],
        "nilquot.extend_s_max": a["max"]["nilquot.extend"],
        "nilquot.rows": c["nilquot.rows"],
        "nilquot.rank": c["nilquot.rank"],
        "nilquot.row_yield": _ratio(c["nilquot.rank"], c["nilquot.rows"]),
        "nilquot.max_block": c["nilquot.max_block"],
        "nilquot.basis_dim": c["nilquot.basis_dim"],
        "liealg.jacobi_s": a["incl"]["liealg.jacobi"],
        "liealg.jacobi_calls": a["calls"]["liealg.jacobi"],
        "liealg.closure_s": a["incl"]["liealg.closure"],
        "liealg.closure_calls": a["calls"]["liealg.closure"],
        "liealg.extremal_form_s": a["incl"]["liealg.extremal_form"],
        "liealg.assoc_s": a["incl"]["liealg.assoc"],
        "liealg.assoc_calls": a["calls"]["liealg.assoc"],
        "liealg.is_extremal_s": a["incl"]["liealg.is_extremal"],
        "liealg.is_extremal_calls": a["calls"]["liealg.is_extremal"],
        "liealg.killing_s": a["incl"]["liealg.killing"],
        "liealg.radical_chain_s": a["incl"]["liealg.radical_chain"],
        "liealg.matrix_algebra_s": a["incl"]["liealg.matrix_algebra"],
        "chevalley.mingen_s": a["incl"]["chevalley.mingen"],
        "chevalley.natural_rep_s": a["incl"]["chevalley.natural_rep"],
        "chevalley.spanning_s": a["incl"]["chevalley.spanning"],
        "chevalley.root_exp_calls": a["calls"]["chevalley.root_exp"],
        "chevalley.root_exp_s": a["incl"]["chevalley.root_exp"],
        "chevalley.generation_checks": a["calls"]["chevalley.generation_check"],
        "rootgroups.exp_builds": exp_builds,
        "trace.wall_s": wall,
        "trace.outside_s": wall - a["roots"],
        "trace.spans": len(run),
    })
    return {k: v for k, v in m.items() if tracer.available(METRIC_SOURCES.get(k, ()))}


def counter_metrics(tracer):
    """Field call counts of the timed part of a run of ``install_counters``."""
    m = {"scalars.ops": tracer.field_ops[0], "scalars.is_zero": tracer.field_zero[0]}
    return {k: v for k, v in m.items() if tracer.available(METRIC_SOURCES[k])}


def breakdown(spans, run_start, key=None):
    """For each root span of the timed part (or, given ``key``, each outermost
    span of that key), in order: its duration and the inclusive time of each
    layer and of each span key beneath it."""
    run = [s for s in spans if s[3] >= run_start]
    if key is None:
        groups = by_root(run)
    else:
        groups = group_under(run, lambda s: s[2] == key and s[5])
    out = []
    for head_id, group in groups.items():
        a = analyse(group)
        head = next(s for s in group if s[0] == head_id)
        out.append({
            "wall_s": head[4] - head[3],
            "layer_incl_s": dict(a["layer_incl"]),
            "incl_s": dict(a["incl"]),
        })
    return out


def _ratio(num, den):
    return num / den if den else 0.0
