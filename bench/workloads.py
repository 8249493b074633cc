"""The four benchmark workloads.

Each workload has a ``setup(seed)`` that builds its inputs (network text
from :mod:`gen`, ``load_network``, the departure state and any simulated
observation set) and an ``op(inputs, i)`` that performs the i-th unit of
work and returns ``(parts, output)``: the time of each named part, as
the workload's clock reads it, and whatever ``check`` needs. ``final``
runs once after the timed loop. Checks run outside the timed regions and
report every verified operation to a :class:`Checks`.

Library functions are always looked up on the ``stdroute`` package at
call time, so the outside-in tracer sees every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import gen
import stdroute as sr
from clock import Clock
from tracing import NullTracer

BETA_TRUE = -1.0
BETA_START = -0.5
N_OBS = 2000
PROFILE = (-1.5, -1.25, -1.0, -0.75, -0.5)  # betas of the timed likelihood calls
BETA_TOL = 0.15  # |beta_hat - beta_true|; about 7 standard errors at N_OBS
LL_TOL = 1e-9
CHOICE_SUM_TOL = 1e-12
RATIO_RTOL = 1e-9
SIZE_WINDOW = 0.03  # accepted relative distance of state-actions from a grid's target
NETWORKS = 3  # grids per fit-workload run
MAX_CANDIDATES = 500


class Checks:
    """Counts verified operations and failures; failures are reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def sized_grid(seed: tuple[int, ...], n: int, r: int, k: int, target: int | None):
    """First grid drawn from (*seed, 0), (*seed, 1), ... whose state-action count is near ``target``.

    Holding the problem size steady across seeds keeps run-to-run spread
    down to what the seeds change besides size. Sizes are counted by the
    benchmark's own expansion, never by the package under test.
    """
    for candidate in range(MAX_CANDIDATES):
        text = gen.grid_network([*seed, candidate], n, r, k)
        size = gen.state_space(text)
        if target is None or abs(size["state_actions"] - target) <= SIZE_WINDOW * target:
            return text, size
    raise RuntimeError(f"no {n}x{n} grid within {SIZE_WINDOW:.0%} of {target} state-actions")


@dataclass
class GridInputs:
    seed: tuple[int, ...]
    text: str
    size: dict
    net: object
    spp: object
    s0: object
    obs: object = None


def load_grid(seed: tuple[int, ...], grid: tuple[int, int, int], target: int | None) -> GridInputs:
    text, size = sized_grid(seed, *grid, target)
    net, spp = sr.load_network(text)
    return GridInputs(seed, text, size, net, spp, sr.initial_state(net, spp))


class Workload:
    """Shared state: the clock that times parts and the tracer for benchmark-side spans."""

    def __init__(self, clock: Clock | None = None, tracer=None) -> None:
        self.clock = clock or Clock()
        self.tracer = tracer or NullTracer()

    def final(self, inputs) -> dict:
        """Work done once after the timed loop; returns named metrics, (value, unit) each."""
        return {}

    def check_final(self, inputs, checks: Checks) -> None:
        pass

    @staticmethod
    def networks(inputs) -> list[tuple[str, object, object, object]]:
        """(text, network, support points, departure state) of every network loaded."""
        return [(g.text, g.net, g.spp, g.s0) for g in inputs]


class FitWorkload(Workload):
    """Likelihood evaluations over a fixed beta profile, then one checked ``fit``.

    The timed operation is one ``log_likelihood`` call over a simulated
    observation set, cycling through NETWORKS grids (the cost of a call
    follows the number of distinct observed sequences, which varies with
    the data; several grids average that out) and through PROFILE. The fit
    itself runs once per process, on the first grid, after the timed loop:
    with central-difference gradients its number of likelihood evaluations
    changes with the order of the observations alone, so single fit times
    are not a steady measure.
    """

    model = ""
    grid = (0, 0, 0)
    target: int | None = None

    def __init__(self, clock=None, tracer=None) -> None:
        super().__init__(clock, tracer)
        self._ll: dict[tuple[int, float], float] = {}
        self.result = None

    def setup(self, seed: int) -> list[GridInputs]:
        grids = [load_grid((seed, j), self.grid, self.target) for j in range(NETWORKS)]
        utility = sr.LinkUtilitySpec(beta=(BETA_TRUE,))
        for inputs in grids:
            inputs.obs = sr.ObservationSet.from_counts(self.simulate(inputs, utility))
        return grids

    def op(self, grids: list[GridInputs], i: int):
        j = i % NETWORKS
        beta = PROFILE[i // NETWORKS % len(PROFILE)]
        g = grids[j]
        ll, loglik_s = self.clock(sr.log_likelihood, self.model, g.net, g.spp, g.obs, [beta])
        return {"loglik_s": loglik_s}, (j, beta, ll)

    def check(self, grids: list[GridInputs], output, checks: Checks) -> None:
        j, beta, ll = output
        first = self._ll.setdefault((j, beta), ll)
        checks.check(
            math.isfinite(ll) and ll < 0 and ll == first,
            f"{self.model} log likelihood on grid {j} at beta={beta}: {ll!r} "
            f"(first call gave {first!r})",
        )

    def named_metrics(self, grids: list[GridInputs], medians: dict):
        yield "loglik_s", (medians["loglik_s"], "s")

    def final(self, grids: list[GridInputs]) -> dict:
        g = grids[0]
        self.result, fit_s = self.clock(sr.fit, self.model, g.net, g.spp, g.obs, [BETA_START])
        return {
            "fit_s": (fit_s, "s"),
            "fit.beta_hat": (float(self.result.beta_hat[0]), ""),
            "fit.iterations": (self.result.iterations, "count"),
            "fit.converged": (int(self.result.converged), "bool"),
        }

    def check_final(self, grids: list[GridInputs], checks: Checks) -> None:
        """The fit beats every profile point, beta_true included, and recovers beta_true."""
        g = grids[0]
        if (0, BETA_TRUE) not in self._ll:
            ll = sr.log_likelihood(self.model, g.net, g.spp, g.obs, [BETA_TRUE])
            self.check(grids, (0, BETA_TRUE, ll), checks)
        best = max(ll for (j, _), ll in self._ll.items() if j == 0)
        beta_hat = float(self.result.beta_hat[0])
        checks.check(
            self.result.log_likelihood >= best - LL_TOL and abs(beta_hat - BETA_TRUE) <= BETA_TOL,
            f"{self.model} fit: beta_hat={beta_hat!r}, LL={self.result.log_likelihood!r}, "
            f"best profile LL={best!r}",
        )


class RecFit(FitWorkload):
    name = "rec-fit"
    model = "recursive"
    grid = (4, 8, 4)
    target = 460

    def simulate(self, inputs, utility):
        vf = sr.solve_value_functions(inputs.net, inputs.spp, utility, initial=inputs.s0)
        return sr.sample_sequence_counts(vf, N_OBS, seed=list(inputs.seed))


class NrFit(FitWorkload):
    name = "nr-fit"
    model = "nonrecursive"
    grid = (3, 3, 3)

    def simulate(self, inputs, utility):
        cs = sr.enumerate_policies(inputs.net, inputs.spp, inputs.s0)
        return sr.sample_sequence_counts_nr(cs, utility, N_OBS, seed=list(inputs.seed))


class RecPredict(Workload):
    """Solve plus full choice table, N sampled trajectories and one likelihood, per operation."""

    name = "rec-predict"
    grid = (6, 32, 6)
    target = 9597
    n_sim = 50_000
    utility = sr.LinkUtilitySpec(beta=(BETA_TRUE,))

    def __init__(self, clock=None, tracer=None) -> None:
        super().__init__(clock, tracer)
        self._ll = None

    def setup(self, seed: int) -> list[GridInputs]:
        inputs = load_grid((seed,), self.grid, self.target)
        vf = sr.solve_value_functions(inputs.net, inputs.spp, self.utility, initial=inputs.s0)
        inputs.obs = sr.ObservationSet.from_counts(sr.sample_sequence_counts(vf, N_OBS, seed=seed))
        return [inputs]

    def predict(self, inputs: GridInputs):
        vf = sr.solve_value_functions(inputs.net, inputs.spp, self.utility, initial=inputs.s0)
        decision = [s for s in vf.values if not inputs.net.is_destination(s.link)]
        with self.tracer.span("recursive.choice_table"):
            return vf, [sr.choice_distribution(vf, s) for s in decision]

    def op(self, grids: list[GridInputs], i: int):
        inputs = grids[0]
        (vf, table), predict_s = self.clock(self.predict, inputs)
        counts, simulate_s = self.clock(
            sr.sample_sequence_counts, vf, self.n_sim, seed=[*inputs.seed, 1, i]
        )
        ll, loglik_s = self.clock(
            sr.log_likelihood, "recursive", inputs.net, inputs.spp, inputs.obs, [BETA_TRUE]
        )
        parts = {"predict_s": predict_s, "simulate_s": simulate_s, "loglik_s": loglik_s}
        return parts, (table, counts, ll)

    def named_metrics(self, grids: list[GridInputs], medians: dict):
        yield "predict_s", (medians["predict_s"], "s")
        yield "loglik_s", (medians["loglik_s"], "s")
        yield "simulate_traj_per_s", (self.n_sim / medians["simulate_s"], "1/s")

    def check(self, grids: list[GridInputs], output, checks: Checks) -> None:
        table, counts, ll = output
        for dist in table:
            total = math.fsum(dist.values())
            checks.check(abs(total - 1.0) <= CHOICE_SUM_TOL, f"choice row sums to {total!r}")
        total = sum(counts.values())
        checks.check(total == self.n_sim, f"sampled counts sum to {total}, expected {self.n_sim}")
        if self._ll is None:
            self._ll = ll
        checks.check(
            math.isfinite(ll) and ll < 0 and ll == self._ll,
            f"log likelihood {ll!r} (first call gave {self._ll!r})",
        )


@dataclass
class SmallInputs:
    scenarios: list
    texts: list
    nets: list


class SmallNets(Workload):
    """Two-route scenario sweep plus ``equivalence_report`` on small random networks."""

    name = "small-nets"
    n_nets = 5 * len(gen.LAYERED_CLASSES)
    CHUNKS = 10

    def setup(self, seed: int) -> SmallInputs:
        scenarios = [
            sr.TwoRouteScenario(a=a, b=b, x=x, y=y, p=p) for a, b, x, y, p in gen.two_route_grid(seed)
        ]
        texts = gen.layered_networks(seed, self.n_nets)
        return SmallInputs(scenarios, texts, [sr.load_network(t) for t in texts])

    @staticmethod
    def networks(inputs: SmallInputs):
        return [(t, n, s, sr.initial_state(n, s)) for t, (n, s) in zip(inputs.texts, inputs.nets)]

    @staticmethod
    def sweep(scenarios):
        return [(sr.ratio_table(s), sr.dominance_class(s), sr.extremeness_check(s)) for s in scenarios]

    @staticmethod
    def equivalence(nets):
        reports = []
        for net, spp in nets:
            try:
                reports.append(sr.equivalence_report(net, spp))
            except Exception as exc:  # any raise is a failed check, reported by check()
                reports.append(exc)
        return reports

    def chunked(self, fn, items):
        """``fn`` over ``CHUNKS`` slices of ``items``, each slice timed (and corrected) on its own.

        A pass lasts long enough for the host's speed to change within it;
        short slices keep the reference runs close to the work they gauge.
        """
        out, total = [], 0.0
        step = -(-len(items) // self.CHUNKS)
        for start in range(0, len(items), step):
            part, seconds = self.clock(fn, items[start:start + step])
            out += part
            total += seconds
        return out, total

    def op(self, inputs: SmallInputs, i: int):
        sweep, sweep_s = self.chunked(self.sweep, inputs.scenarios)
        reports, equivalence_s = self.chunked(self.equivalence, inputs.nets)
        return {"sweep_s": sweep_s, "equivalence_s": equivalence_s}, (sweep, reports)

    def named_metrics(self, inputs: SmallInputs, medians: dict):
        yield "sweep_scenarios_per_s", (len(inputs.scenarios) / medians["sweep_s"], "1/s")
        yield "equivalence_nets_per_s", (len(inputs.nets) / medians["equivalence_s"], "1/s")
        dominated = sum(sr.dominance_class(s).endswith("_dominant") for s in inputs.scenarios)
        yield "dominated_scenarios", (dominated, f"of {len(inputs.scenarios)}")

    def check(self, inputs: SmallInputs, output, checks: Checks) -> None:
        sweep, reports = output
        for s, (table, dominance, extreme) in zip(inputs.scenarios, sweep):
            closed, pipe = table.closed_form, table.pipeline
            pairs = [
                (getattr(getattr(closed, m), f), getattr(getattr(pipe, m), f))
                for m in ("recursive", "nonrecursive")
                for f in ("state1", "state2", "marginal")
            ]
            agree = all(abs(c - p) <= RATIO_RTOL * abs(c) for c, p in pairs)
            dominated = dominance in ("route2_dominant", "route3_dominant")
            checks.check(
                agree and (not dominated or extreme == "recursive_more_extreme"),
                f"scenario {s}: ratios {pairs}, {dominance}, {extreme}",
            )
        for j, report in enumerate(reports):
            checks.check(
                isinstance(report, sr.EquivalenceReport),
                f"equivalence_report on network {j} raised {report!r}",
            )


WORKLOADS = {w.name: w for w in (RecFit, RecPredict, NrFit, SmallNets)}
