"""Message-passing forward simulation, linear-case Jacobians, influence
distributions, and the Jacobian-ratio quantities.

Layer rule: X^{k+1}_u = phi_k( agg_{p in N~_u} psi_k(X^k_p) ), aggregation
always over the extended neighborhood (self included); mean divides by
deg(u)+1. Features are float64; walk counts and ratio arithmetic are exact
(ints and Fractions).

This module measures and states no bound: it reads only `graphs`, and the
inequalities its quantities enter live in `diagnostics`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, generate


class DimensionMismatch(Exception):
    pass


class NotLinear(Exception):
    pass


class DegenerateNormalizer(Exception):
    pass


class SpecError(Exception):
    """Malformed MpnnSpec JSON."""


# safety factor applied wherever a numerically computed operator norm is
# used on the bound side of an inequality
_NORM_SAFETY = 1 + 1e-9


@dataclass(frozen=True)
class Update:
    """Update map phi with a certified Lipschitz constant.

    kinds: identity; linear (matrix); clamp to [-bound, bound]; abs;
    leaky (x for x>0 else slope*x, |slope| <= 1); composition (parts applied
    left to right).
    """

    kind: str
    matrix: np.ndarray | None = None
    bound: float | None = None
    slope: float | None = None
    parts: tuple["Update", ...] = ()

    def apply(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return y
        if self.kind == "linear":
            return y @ self.matrix.T
        if self.kind == "clamp":
            return np.clip(y, -self.bound, self.bound)
        if self.kind == "abs":
            return np.abs(y)
        if self.kind == "leaky":
            return np.where(y > 0, y, self.slope * y)
        if self.kind == "composition":
            for part in self.parts:
                y = part.apply(y)
            return y
        raise SpecError(f"unknown update kind {self.kind!r}")

    def lipschitz(self) -> float:
        if self.kind == "identity":
            return 1.0
        if self.kind == "linear":
            return float(np.linalg.norm(self.matrix, 2)) * _NORM_SAFETY
        if self.kind in ("clamp", "abs"):
            return 1.0
        if self.kind == "leaky":
            return max(1.0, abs(self.slope))
        if self.kind == "composition":
            out = 1.0
            for part in self.parts:
                out *= part.lipschitz()
            return out
        raise SpecError(f"unknown update kind {self.kind!r}")

    def linear_matrix(self, dim: int) -> np.ndarray | None:
        """The Jacobian matrix when the map is linear, else None."""
        if self.kind == "identity":
            return np.eye(dim)
        if self.kind == "linear":
            return np.array(self.matrix, dtype=float)
        if self.kind == "composition":
            acc = np.eye(dim)
            for part in self.parts:
                m = part.linear_matrix(acc.shape[0])
                if m is None:
                    return None
                acc = m @ acc
            return acc
        return None

    def out_dim(self, d_in: int) -> int:
        if self.kind == "linear":
            if self.matrix.shape[1] != d_in:
                raise DimensionMismatch(
                    f"update matrix expects {self.matrix.shape[1]} channels, got {d_in}"
                )
            return self.matrix.shape[0]
        if self.kind == "composition":
            for part in self.parts:
                d_in = part.out_dim(d_in)
        return d_in


@dataclass(frozen=True)
class LayerSpec:
    aggregator: str  # "sum" | "mean"
    message: np.ndarray  # psi as a (d_out, d_in) matrix
    update: Update

    def operator_bound(self) -> float:
        """Certified M with |psi(x)| <= M |x| (spectral norm, bound side)."""
        return float(np.linalg.norm(self.message, 2)) * _NORM_SAFETY


@dataclass(frozen=True)
class MpnnSpec:
    layers: tuple[LayerSpec, ...]


def identity_spec(channels: int, layers: int, aggregator: str) -> MpnnSpec:
    """Pure message passing: identity psi and phi at every layer."""
    eye = np.eye(channels)
    layer = LayerSpec(aggregator=aggregator, message=eye, update=Update("identity"))
    return MpnnSpec(layers=(layer,) * layers)


def _matrix(value, what: str) -> np.ndarray:
    """value as a 2-d matrix of finite floats; anything else is a SpecError.
    A JSON null reads as NaN here, and an integer beyond a float as inf."""
    try:
        matrix = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be a matrix of numbers") from None
    if matrix.ndim != 2:
        raise SpecError(f"{what} must be a 2-d matrix")
    if not np.all(np.isfinite(matrix)):
        raise SpecError(f"{what} must hold finite numbers")
    return matrix


def _parse_update(obj) -> Update:
    if not isinstance(obj, dict):
        raise SpecError(f"an update must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "identity":
        return Update("identity")
    if kind == "linear":
        return Update("linear", matrix=_matrix(obj.get("matrix"), "linear update matrix"))
    if kind == "clamp":
        bound = obj.get("bound")
        if not isinstance(bound, float) or not 0 < bound < math.inf:
            raise SpecError('clamp update needs a positive finite "bound"')
        return Update("clamp", bound=bound)
    if kind == "abs":
        return Update("abs")
    if kind == "leaky":
        slope = obj.get("slope", 0.01)
        if not isinstance(slope, float) or not abs(slope) <= 1:
            raise SpecError('leaky update needs a finite "slope" of magnitude <= 1')
        return Update("leaky", slope=slope)
    if kind == "composition":
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise SpecError('composition update needs a non-empty "parts" list')
        return Update("composition", parts=tuple(_parse_update(p) for p in parts))
    raise SpecError(f"unknown update kind {kind!r}")


def _reject_constant(name: str):
    raise SpecError(f"non-finite number {name} in spec JSON")


def parse_spec(text: str) -> MpnnSpec:
    """Parse the layer-spec JSON: {"layers": [{"aggregator", "message", "update"}]}."""
    try:
        # every number a float: an integer too large for one is inf, not an OverflowError
        obj = json.loads(text, parse_constant=_reject_constant, parse_int=float)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("layers"), list):
        raise SpecError('spec JSON must be an object with a "layers" list')
    layers = []
    for i, lo in enumerate(obj["layers"]):
        if not isinstance(lo, dict):
            raise SpecError(f"layer {i} must be an object, got {lo!r}")
        agg = lo.get("aggregator")
        if agg not in ("sum", "mean"):
            raise SpecError(f'layer {i}: aggregator must be "sum" or "mean"')
        message = _matrix(lo.get("message"), f"layer {i}: message")
        update = _parse_update(lo.get("update", {"kind": "identity"}))
        layers.append(LayerSpec(aggregator=agg, message=message, update=update))
    return MpnnSpec(layers=tuple(layers))


def _check_features(g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.vertex_count:
        raise DimensionMismatch(
            f"feature matrix must be ({g.vertex_count}, d), got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def forward(g: Graph, x: np.ndarray, spec: MpnnSpec) -> list[np.ndarray]:
    """Run every layer; returns [X^0, X^1, ..., X^K].

    Raises ValueError when a layer's output is not finite (an overflow).
    """
    x = _check_features(g, x)
    out = [x]
    for k, layer in enumerate(spec.layers, start=1):
        if layer.message.shape[1] != x.shape[1]:
            raise DimensionMismatch(
                f"message matrix expects {layer.message.shape[1]} channels, "
                f"got {x.shape[1]}"
            )
        msgs = x @ layer.message.T
        layer.update.out_dim(msgs.shape[1])
        agg = np.empty((g.vertex_count, msgs.shape[1]))
        for u in range(g.vertex_count):
            block = msgs[list(g.adjacency[u]) + [u]]
            s = block.sum(axis=0)
            agg[u] = s / (g.degree(u) + 1) if layer.aggregator == "mean" else s
        x = layer.update.apply(agg)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"layer {k} output is not finite")
        out.append(x)
    return out


def vertex_norms(x: np.ndarray) -> list[float]:
    """The Euclidean norm |X_p| of every feature row, in vertex order.

    Taken row by row as sqrt(row . row), which is what np.linalg.norm
    computes on a contiguous 1-d row, so the bits are its bits without its
    per-call overhead. The rows are made contiguous first: a strided row
    takes another dot kernel, whose sum can differ in the last bit.
    np.linalg.norm(x, axis=1) sums the squares another way and differs by
    an ulp or two on about a tenth of random rows, which would move the
    bounds built on C and so the bytes of `orckit verify`.
    """
    return [math.sqrt(row.dot(row)) for row in np.ascontiguousarray(x)]


def edge_gaps(x: np.ndarray, edges: Iterable[tuple[int, int]]) -> tuple[float, ...]:
    """The Euclidean gap |X_u - X_v| across each (u, v) of edges, in order,
    as sqrt(d . d) of the (contiguous) difference d, bit for bit
    np.linalg.norm(d) (see `vertex_norms`)."""
    return tuple(math.sqrt(d.dot(d)) for d in (x[u] - x[v] for u, v in edges))


# Every step keeps its state and its gap row, so memory, time and report size
# grow linearly with the step count; the demo graph has collapsed long before.
MAX_DEMO_ITERATIONS = 1000


def smoothing_demo(g: Graph, x: np.ndarray, iterations: int) -> list[np.ndarray]:
    """Pure averaging (mean aggregation, identity maps) for a number of steps.

    Returns the trajectory, of length iterations+1; its Dirichlet energies
    are `diagnostics.smoothing_metrics(g, trajectory).dirichlet`. Raises
    ValueError when iterations is negative or above MAX_DEMO_ITERATIONS,
    before anything is allocated.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be a non-negative integer, got {iterations}")
    if iterations > MAX_DEMO_ITERATIONS:
        raise ValueError(f"iterations must be at most {MAX_DEMO_ITERATIONS}, got {iterations}")
    x = _check_features(g, x)
    spec = identity_spec(x.shape[1], iterations, "mean")
    return forward(g, x, spec)


def demo_instance() -> tuple[Graph, np.ndarray]:
    """The 6-vertex demo: an octahedron whose vertices carry four rough color
    classes (red / two green / two blue / gray)."""
    g = generate("cocktail_party", m=3)
    x = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.5],
        ]
    )
    return g, x


# ---------------------------------------------------------------------------
# Linear-case structure: walk counts, Jacobians, influence, alpha/beta.


def _walk_row(g: Graph, depth: int, u: int) -> dict[int, int]:
    """Row u of (A+I)^depth as {vertex: walk count} over u's depth-ball, the
    one source of every (A+I)^k entry here. Each step keeps every count and
    adds it to the vertex's neighbours, so the cost is the sum of the
    degrees in the ball, not n."""
    row = {u: 1}
    for _ in range(depth):
        step = dict(row)
        for a, c in row.items():
            for b in g.adjacency[a]:
                step[b] = step.get(b, 0) + c
        row = step
    return row


def walk_counts(g: Graph, depth: int) -> list[list[int]]:
    """((A+I)^depth) with exact integer entries: counts of self-loop-augmented
    walks between vertex pairs: the dense view of the `_walk_row` rows."""
    n = g.vertex_count
    dense = [[0] * n for _ in range(n)]
    for u in range(n):
        for w, c in _walk_row(g, depth, u).items():
            dense[u][w] = c
    return dense


@dataclass(frozen=True)
class JacobianStack:
    depth: int
    walk_counts: tuple[tuple[int, ...], ...]
    layer_product: np.ndarray  # ordered product of per-layer Jacobians

    def block(self, u: int, w: int) -> np.ndarray:
        return self.walk_counts[u][w] * self.layer_product


def _layer_product(spec: MpnnSpec, depth: int) -> np.ndarray:
    """M_{depth-1} ... M_0 with M_k = J_phi_k @ J_psi_k for a linear sum spec;
    every layer is checked before any product is taken."""
    if depth > len(spec.layers):
        raise SpecError(f"depth {depth} exceeds the {len(spec.layers)}-layer spec")
    mats = []
    for i, layer in enumerate(spec.layers[:depth]):
        if layer.aggregator != "sum":
            raise NotLinear(f"layer {i} aggregates by {layer.aggregator!r}, not sum")
        phi = layer.update.linear_matrix(layer.message.shape[0])
        if phi is None:
            raise NotLinear(f"layer {i} has a nonlinear update")
        mats.append(phi @ layer.message)
    product = np.eye(spec.layers[0].message.shape[1] if spec.layers else 1)
    for m in mats:
        product = m @ product
    return product


def linear_jacobians(g: Graph, spec: MpnnSpec, depth: int) -> JacobianStack:
    """For a linear sum-aggregation spec the Jacobian of X^depth w.r.t. X^0
    factors exactly: block(u, w) = walk_counts[u][w] * (M_{depth-1} ... M_0)
    with M_k = J_phi_k @ J_psi_k."""
    product = _layer_product(spec, depth)
    counts = tuple(tuple(row) for row in walk_counts(g, depth))
    return JacobianStack(depth=depth, walk_counts=counts, layer_product=product)


def influence_distribution(
    g: Graph, spec: MpnnSpec, depth: int, u: int
) -> list[Fraction]:
    """I_u(v) = entrywise sum of the (u,v) Jacobian block over the total across
    all source vertices. For the factored linear case the per-block matrix sum
    cancels, leaving exact walk-count ratios."""
    if float(_layer_product(spec, depth).sum()) == 0.0:
        raise DegenerateNormalizer("layer product entries sum to zero")
    row = _walk_row(g, depth, u)
    # (A+I)^depth has a positive diagonal, so total >= 1
    total = sum(row.values())
    return [Fraction(row.get(w, 0), total) for w in range(g.vertex_count)]


@dataclass(frozen=True)
class AlphaBeta:
    """Realized two-layer Jacobian mass ratios across one edge (u, v).

    alpha is the largest share of row u of (A+I)^2 held by one sender q in
    N~_v other than u; beta symmetrically. row_sum_u and row_sum_v are the
    row sums the two ratios are taken over. The curvature bound on them is
    stated by `diagnostics.verify_jacobian_ratio`.
    """

    alpha: Fraction
    beta: Fraction
    row_sum_u: int
    row_sum_v: int


class WalkRows(dict):
    """The rows of (A+I)^2 of one graph g, keyed by vertex u: (row, row sum),
    the row as `_walk_row(g, 2, u)` gives it, each built on its first lookup.

    Made per graph and dropped with it: a table kept for a whole corpus, or
    keyed by id(g), would outlive its graphs and grow with the corpus.
    """

    __slots__ = ("g",)

    def __init__(self, g: Graph):
        super().__init__()
        self.g = g

    def __missing__(self, u: int) -> tuple[dict[int, int], int]:
        row = _walk_row(self.g, 2, u)
        self[u] = entry = (row, sum(row.values()))
        return entry


def alpha_beta(g: Graph, u: int, v: int, rows: WalkRows | None = None) -> AlphaBeta:
    """Jacobian mass ratios across the edge (u, v), two sum layers deep.

    For any linear sum stack the (a, b) Jacobian block is ((A+I)^2)_ab times
    one layer product, which cancels out of every ratio, so no spec is
    needed: alpha and beta read rows u and v of (A+I)^2. They come from
    rows, a `WalkRows` table of g shared by the calls over g's edges, so
    each row is built once per graph; without one the call builds its own
    two rows. Raises ValueError when (u, v) is not an edge of g or rows is
    the table of another graph.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    if rows is None:
        rows = WalkRows(g)
    elif rows.g is not g:
        raise ValueError("rows is the walk-row table of another graph")
    (row_u, row_sum_u), (row_v, row_sum_v) = rows[u], rows[v]
    # every sender in N~_v lies within two hops of u, so inside row u's ball
    alpha = Fraction(max(row_u[q] for q in (*g.adjacency[v], v) if q != u), row_sum_u)
    beta = Fraction(max(row_v[p] for p in (*g.adjacency[u], u) if p != v), row_sum_v)
    return AlphaBeta(alpha=alpha, beta=beta, row_sum_u=row_sum_u, row_sum_v=row_sum_v)
