"""Per-layer tracing by wrapping boolfrac's public functions.

Nothing inside boolfrac changes: `Tracer.install` replaces module and
class attributes with timing wrappers and `Tracer.restore` puts the
originals back. Names that other modules bound by value are patched
where they are bound (`lawcheck.format_conditional`, `schay.make`,
`schay.given`, the `osum`/`proj` entries of `lang._FUNC_OPS`) and
`Measure` is patched on the class, so `lang`'s imported name sees it.

High-frequency boundaries (kernels, `Measure.weight_bits`) keep only
aggregated counts and durations. Every wrapped call also adds its time
to its caller's child total, so a function's self time is its time
minus the time of the traced calls it made. Coarse boundaries
(`lawcheck.check`, `cli.main`) also record one span each, tagged with
the id of the benchmark operation that caused it. Everything stays in
memory until `spans` is written out at the end of the run.
"""

from time import perf_counter

from boolfrac import cli, lang, lawcheck, prob, schay
from boolfrac import conditional as cnd
from boolfrac import relations as rel


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.child = 0.0          # traced time spent in callees of the open frame
        self.stats = {}           # function key -> Stat
        self.layer_of = {}        # function key -> layer name
        self.layer_depth = {}     # layer -> open frames in that layer
        self.layer_total = {}     # layer -> time of outermost entries
        self.spans = []
        self.op_id = None         # id of the benchmark operation in flight
        self._saved = []

    # -------------------------------------------------------- wrappers

    def _stat(self, key, layer):
        if key not in self.stats:
            self.stats[key] = Stat()
            self.layer_of[key] = layer
            self.layer_depth.setdefault(layer, 0)
            self.layer_total.setdefault(layer, 0.0)
        return self.stats[key]

    def leaf(self, key, layer, fn):
        """Wrapper for a hot function that calls nothing traced."""
        stat = self._stat(key, layer)
        tracer = self

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            stat.calls += 1
            stat.total += dt
            stat.self_time += dt
            tracer.child += dt
            return result

        return wrapper

    def frame(self, key, layer, fn, span=False):
        """Wrapper that times self and children; recursion is counted but
        timed by the outermost call."""
        stat = self._stat(key, layer)
        tracer = self
        depth = self.layer_depth
        active = [False]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            saved = tracer.child
            tracer.child = 0.0
            depth[layer] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                depth[layer] -= 1
                if depth[layer] == 0:
                    tracer.layer_total[layer] += dt
                stat.total += dt
                stat.self_time += dt - tracer.child
                tracer.child = saved + dt
                active[0] = False
                if span:
                    tracer.spans.append((tracer.op_id, key, t0, t1))

        return wrapper

    def patch(self, owner, name, wrapper):
        """Replace a module or class attribute, or a dict entry."""
        if isinstance(owner, dict):
            self._saved.append((owner, name, owner[name]))
            owner[name] = wrapper
        else:
            self._saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrapper)

    # -------------------------------------------------------- install

    def install(self):
        for name in ("or_bits", "and_bits", "not_bits", "given_bits", "osum_bits", "sasaki_bits"):
            self.patch(cnd, name, self.leaf("conditional.kernel." + name, "conditional",
                                             getattr(cnd, name)))
        for name in ("cap_bits", "cup_bits", "sand_bits", "vee_bits"):
            self.patch(schay, name,
                       self.leaf("schay.kernel." + name, "schay", getattr(schay, name)))
        ops = {}
        for name in ("make", "or_", "and_", "negate", "given", "osum", "sasaki"):
            ops[name] = self.frame("conditional.op." + name, "conditional", getattr(cnd, name))
            self.patch(cnd, name, ops[name])
        self.patch(schay, "make", ops["make"])
        self.patch(schay, "given", ops["given"])
        self.patch(lang._FUNC_OPS, "osum", ops["osum"])
        self.patch(lang._FUNC_OPS, "proj", ops["sasaki"])

        measure = prob.Measure
        self.patch(measure, "__init__", self.frame("prob.Measure", "prob", measure.__init__))
        self.patch(measure, "weight_bits",
                   self.leaf("prob.weight_bits", "prob", measure.weight_bits))
        for name in ("p_cond", "additive_law_check", "p_or_formula", "p_superposition"):
            self.patch(prob, name, self.frame("prob." + name, "prob", getattr(prob, name)))

        for name in ("parse_space", "parse_expr", "lower"):
            self.patch(lang, name, self.frame("lang." + name, "lang", getattr(lang, name)))
        fmt = self.frame("lang.format_conditional", "lang", lang.format_conditional)
        self.patch(lang, "format_conditional", fmt)
        self.patch(lawcheck, "format_conditional", fmt)

        for name in (
            "holds", "orthogonal", "orthogonal_bits", "ortho_family_member",
            "sim_verifiable", "sim_verifiable_bits", "sim_falsifiable", "compatible",
            "in_common_subalgebra", "decomposition_witness", "profile", "closure_bits",
            "generated_subalgebra",
        ):
            self.patch(rel, name, self.frame("relations." + name, "relations", getattr(rel, name)))

        self.patch(lawcheck, "check", self.frame("lawcheck.check", "lawcheck", lawcheck.check,
                                                 span=True))
        self.patch(cli, "build_parser", self.frame("cli.build_parser", "cli", cli.build_parser))
        self.patch(cli, "main", self.frame("cli.main", "cli", cli.main, span=True))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -------------------------------------------------------- results

    def wrap_kernel(self, name, fn):
        """Trace a kernel installed after `install`, such as a mutant."""
        return self.leaf("conditional.kernel." + name, "conditional", fn)

    def calls(self, prefix):
        return sum(s.calls for k, s in self.stats.items() if k.startswith(prefix))

    def seconds(self, prefix):
        return sum(s.total for k, s in self.stats.items() if k.startswith(prefix))

    def layer_self(self, layer):
        """Time spent in a layer's own code, excluding traced callees."""
        return sum(s.self_time for k, s in self.stats.items() if self.layer_of[k] == layer)

    def dump(self):
        """Counters per wrapped function and the coarse spans, for a file."""
        return {
            "stats": {k: [s.calls, s.total, s.self_time] for k, s in sorted(self.stats.items())},
            "spans": [
                {"op": op, "name": name, "start": t0, "end": t1}
                for op, name, t0, t1 in self.spans
            ],
        }
