"""Economic category: objects, composable series transforms, diagrams, functors.

Morphisms are *specifications* (plain data), not opaque callables, so
composition can canonicalize, reports can print them, and diagrams round-trip
through JSON. A morphism's endpoints are object ids; an :class:`EconObject`
appears only where it carries a description, as a diagram node or a functor's
object image. ``evaluate`` gives morphisms data semantics over a :class:`Panel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    IncompatibleEndpoints,
    NonFiniteValue,
    UnmappedMorphism,
    UnmappedObject,
)
from .panel import Panel, Series
from .typed_json import parse, reject_repeats


@dataclass(frozen=True)
class EconObject:
    """A node of the category: one economic variable or construct.

    Identity is the id alone; the description is annotation."""

    id: str
    description: str = field(default="", compare=False)

    def __repr__(self) -> str:
        return f"EconObject({self.id!r})"


# -- morphism kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """x -> a*x + b."""

    a: float
    b: float


@dataclass(frozen=True)
class ScaleBySeries:
    """x -> x * s(t) for a named panel series s."""

    variable: str


@dataclass(frozen=True)
class Ratio:
    """-> num(t) / den(t); the incoming value is discarded."""

    numerator: str
    denominator: str


@dataclass(frozen=True)
class RiskDiscount:
    """x -> x / (1 + rho(t)) for a named risk-premium series rho."""

    premium: str


@dataclass(frozen=True)
class Chain:
    """Left-to-right pipeline of already-specified morphisms."""

    parts: tuple[MorphismSpec, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("Chain must be non-empty")
        for left, right in zip(self.parts, self.parts[1:]):
            if left.target != right.source:
                raise IncompatibleEndpoints(
                    f"chain link {left.target!r} -> {right.source!r}"
                )


Kind = Affine | ScaleBySeries | Ratio | RiskDiscount | Chain


@dataclass(frozen=True)
class MorphismSpec:
    """A morphism from the object with id ``source`` to the one with id
    ``target``."""

    kind: Kind
    source: str
    target: str


Path = tuple[MorphismSpec, ...]


def identity(obj: str) -> MorphismSpec:
    return MorphismSpec(Affine(1.0, 0.0), obj, obj)


def is_identity(m: MorphismSpec) -> bool:
    return _is_noop(m) and m.source == m.target


def _flatten(m: MorphismSpec) -> tuple[MorphismSpec, ...]:
    if isinstance(m.kind, Chain):
        out: list[MorphismSpec] = []
        for part in m.kind.parts:
            out.extend(_flatten(part))
        return tuple(out)
    return (m,)


def _is_noop(m: MorphismSpec) -> bool:
    return isinstance(m.kind, Affine) and m.kind.a == 1.0 and m.kind.b == 0.0


def _normalize(parts: tuple[MorphismSpec, ...]) -> tuple[MorphismSpec, ...]:
    """Canonical chain form: no no-op parts, no two adjacent affine parts.

    Merging adjacent affines here (not only at the top level) makes the
    canonical form independent of composition grouping, so associativity
    holds on the data itself wherever a non-affine link is involved.
    """
    out: list[MorphismSpec] = []
    for part in parts:
        if _is_noop(part) and len(parts) > 1:
            continue
        if out and isinstance(out[-1].kind, Affine) and isinstance(part.kind, Affine):
            prev = out.pop()
            merged = Affine(
                part.kind.a * prev.kind.a,
                part.kind.a * prev.kind.b + part.kind.b,
            )
            out.append(MorphismSpec(merged, prev.source, part.target))
        else:
            out.append(part)
    return tuple(out)


def compose(f: MorphismSpec, g: MorphismSpec) -> MorphismSpec:
    """Return ``g after f`` (f is applied first).

    Adjacent affine maps canonicalize to a single affine map; composing
    with an identity returns the other morphism unchanged; anything else
    becomes a flattened normalized chain.
    """
    if f.target != g.source:
        raise IncompatibleEndpoints(
            f"target {f.target!r} does not match source {g.source!r}"
        )
    if is_identity(g):
        return f
    if is_identity(f):
        return g
    parts = _normalize(_flatten(f) + _flatten(g))
    if len(parts) == 1:
        return MorphismSpec(parts[0].kind, f.source, g.target)
    return MorphismSpec(Chain(parts), f.source, g.target)


def compose_path(path: Sequence[MorphismSpec]) -> MorphismSpec:
    if not path:
        raise ValueError("empty path")
    out = path[0]
    for step in path[1:]:
        out = compose(out, step)
    return out


# -- evaluation ---------------------------------------------------------------


def _checked_divide(
    num: np.ndarray, den: np.ndarray, present: np.ndarray, panel: Panel, label: str
) -> np.ndarray:
    zero = present & (den == 0.0)
    if zero.any():
        raise DivisionByZero(panel.dates[int(np.argmax(zero))], label)
    return num / den


def _apply_kind(kind: Kind, x: np.ndarray, panel: Panel, label: str) -> np.ndarray:
    if isinstance(kind, Affine):
        return kind.a * x + kind.b
    if isinstance(kind, ScaleBySeries):
        return x * panel.column(kind.variable).array
    if isinstance(kind, Ratio):
        num = panel.column(kind.numerator).array
        return _checked_divide(
            num, panel.column(kind.denominator).array, ~np.isnan(num), panel, label
        )
    if isinstance(kind, RiskDiscount):
        rho = panel.column(kind.premium).array
        return _checked_divide(x, 1.0 + rho, ~np.isnan(x), panel, label)
    if isinstance(kind, Chain):
        for part in kind.parts:
            x = _apply_kind(part.kind, x, panel, label)
        return x
    raise TypeError(f"unknown morphism kind {kind!r}")


def evaluate(m: MorphismSpec, panel: Panel) -> Series:
    """Apply a morphism pointwise to the panel column of its source object.

    Missing inputs propagate as missing outputs; a zero denominator in
    ``Ratio`` or ``RiskDiscount`` is a hard :class:`DivisionByZero` carrying
    the first offending date, and a value that overflows although every
    column it reads is present a :class:`NonFiniteValue`.
    """
    parts = _flatten(m)
    # every text field of a kind names a panel column that it reads
    reads = [v for p in parts for v in vars(p.kind).values() if isinstance(v, str)]
    if isinstance(parts[0].kind, Ratio):  # a ratio discards its input
        x = np.full(panel.n_rows, np.nan)
    else:
        x = panel.column(m.source).array
        reads.append(m.source)
    with np.errstate(over="ignore", invalid="ignore"):
        y = _apply_kind(m.kind, x, panel, m.source)
    present = np.all([~np.isnan(panel.column(name).array) for name in reads], axis=0)
    bad = present & ~np.isfinite(y)
    if bad.any():
        raise NonFiniteValue(panel.dates[int(np.argmax(bad))], m.source)
    return Series(y)


# -- diagrams -----------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """Nodes, edges and the path pairs declared to commute. Each node id
    appears once, every morphism's endpoints are node ids, each declared
    path links end to start, and both paths of a pair end at one node. Their
    sources may differ: the equilibrium condition equates paths from
    ``L_ARS`` and from ``L_USD`` into one flow."""

    nodes: tuple[EconObject, ...]
    edges: tuple[MorphismSpec, ...] = ()
    equal_paths: tuple[tuple[Path, Path], ...] = ()

    def __post_init__(self) -> None:
        ids = [node.id for node in self.nodes]
        reject_repeats("nodes", ids)
        paths = {f"edges[{i}]": (m,) for i, m in enumerate(self.edges)}
        for i, pair in enumerate(self.equal_paths):
            for side, path in enumerate(pair):
                paths[f"equal_paths[{i}][{side}]"] = path
        for where, path in paths.items():
            if not path:
                raise ValueError(f"{where} is an empty path")
            for m in path:
                if m.source not in ids or m.target not in ids:
                    raise ValueError(
                        f"{where} endpoint {m.source!r}->{m.target!r} "
                        "not among diagram nodes"
                    )
            for j, (left, right) in enumerate(zip(path, path[1:]), start=1):
                if left.target != right.source:
                    raise ValueError(
                        f"{where}[{j}] starts at {right.source!r}, not where "
                        f"{where}[{j - 1}] ends, {left.target!r}"
                    )
        for i, (left, right) in enumerate(self.equal_paths):
            if left[-1].target != right[-1].target:
                raise ValueError(
                    f"equal_paths[{i}] pairs a path into {left[-1].target!r} "
                    f"with one into {right[-1].target!r}"
                )


@dataclass(frozen=True)
class PathPairCheck:
    pair: int
    deviation: float | None     # None: one path has a value where the other has none
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class FunctorLawCheck:
    law: str
    subject: str
    deviation: float | None     # as PathPairCheck's
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    """The checks of :func:`check_commutes` or :func:`check_functor_laws`."""

    checks: tuple[PathPairCheck | FunctorLawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _max_abs_deviation(
    a: Series, b: Series, panel: Panel, context: str
) -> tuple[float | None, float]:
    """Return (max |a-b|, max |values|) over the dates where both are present;
    the deviation is None when one is present where the other is missing.
    A difference that overflows raises NonFiniteValue at its first date."""
    u, v = a.array, b.array
    both = ~(np.isnan(u) | np.isnan(v))
    magnitude = float(np.maximum(np.abs(u[both]), np.abs(v[both])).max(initial=0.0))
    if (np.isnan(u) != np.isnan(v)).any():
        return None, magnitude
    with np.errstate(over="ignore"):
        deviation = np.abs(u - v)  # NaN where both are missing
    if np.isinf(deviation).any():
        date = panel.dates[int(np.argmax(np.isinf(deviation)))]
        raise NonFiniteValue(date, f"the deviation of {context}")
    return float(deviation[both].max(initial=0.0)), magnitude


def _tolerance(tol: float | None, magnitude: float) -> float:
    """``tol``, or ``1e-9 * max(1, magnitude)`` when it is None."""
    return 1e-9 * max(1.0, magnitude) if tol is None else tol


def check_commutes(d: Diagram, panel: Panel, tol: float | None = None) -> CheckReport:
    """Evaluate each declared path pair on the panel and compare pointwise.

    When ``tol`` is None the tolerance defaults to
    ``1e-9 * max(1, max |values|)`` per pair.
    """
    checks = []
    for i, (left, right) in enumerate(d.equal_paths):
        a = evaluate(compose_path(left), panel)
        b = evaluate(compose_path(right), panel)
        dev, magnitude = _max_abs_deviation(a, b, panel, f"equal_paths[{i}]")
        pair_tol = _tolerance(tol, magnitude)
        passed = dev is not None and dev <= pair_tol
        checks.append(PathPairCheck(i, dev, pair_tol, passed))
    return CheckReport(tuple(checks))


# -- functors -----------------------------------------------------------------


@dataclass(frozen=True)
class Functor:
    """Structure-preserving map between named categories.

    ``object_map`` is keyed by source object id and must cover every object
    the functor is applied to. ``morphism_map`` holds explicit images; a
    morphism without an explicit image is mapped structurally: identities go
    to identities and chains to the chain of mapped parts.
    """

    name: str
    object_map: Mapping[str, EconObject]
    morphism_map: Mapping[MorphismSpec, MorphismSpec] = field(default_factory=dict)

    def map_object(self, obj: str) -> EconObject:
        try:
            return self.object_map[obj]
        except KeyError:
            raise UnmappedObject(f"functor {self.name!r} has no image for "
                                 f"object {obj!r}") from None

    def map_morphism(self, m: MorphismSpec) -> MorphismSpec:
        if m in self.morphism_map:
            image = self.morphism_map[m]
            src, tgt = self.map_object(m.source).id, self.map_object(m.target).id
            if image.source != src or image.target != tgt:
                raise UnmappedMorphism(
                    f"image endpoints {image.source!r}->{image.target!r}"
                    f" disagree with mapped objects {src!r}->{tgt!r}"
                )
            return image
        if is_identity(m):
            return identity(self.map_object(m.source).id)
        if isinstance(m.kind, Chain):
            return compose_path([self.map_morphism(p) for p in m.kind.parts])
        raise UnmappedMorphism(
            f"functor {self.name!r} has no image for morphism "
            f"{m.source!r}->{m.target!r}"
        )

    def map_composite(self, f: MorphismSpec, g: MorphismSpec) -> MorphismSpec:
        """Image of ``g . f``: the explicitly declared one when present,
        otherwise the composite of the part images (the definitional
        fallback, against which an explicit declaration can disagree)."""
        composite = compose(f, g)
        if composite in self.morphism_map:
            return self.map_morphism(composite)
        return compose(self.map_morphism(f), self.map_morphism(g))


def apply_functor(F: Functor, d: Diagram) -> Diagram:
    """Image diagram: mapped nodes, edges and declared path pairs.

    A node or morphism without an image raises :class:`UnmappedObject` or
    :class:`UnmappedMorphism`, its message led by the item's key path in
    the diagram's JSON form (``nodes[1]``, ``equal_paths[0][1][2]``).
    """

    def images(where: str, items, mapping=F.map_morphism) -> tuple:
        out = []
        for i, item in enumerate(items):
            try:
                out.append(mapping(item))
            except (UnmappedObject, UnmappedMorphism) as error:
                raise type(error)(f"{where}[{i}]: {error}") from None
        return tuple(out)

    nodes = images("nodes", [node.id for node in d.nodes], F.map_object)
    edges = images("edges", d.edges)
    pairs = tuple(
        tuple(images(f"equal_paths[{i}][{j}]", path) for j, path in enumerate(pair))
        for i, pair in enumerate(d.equal_paths)
    )
    # objects that share an image are one node of the image diagram
    return Diagram(tuple(dict.fromkeys(nodes)), edges, pairs)


def _law_deviation(
    lhs: MorphismSpec, rhs: MorphismSpec, panel: Panel, context: str
) -> tuple[float | None, float]:
    # equal specifications evaluate identically; only genuinely different
    # images need data, so abstract objects without panel columns still check
    if lhs == rhs:
        return 0.0, 0.0
    a, b = evaluate(lhs, panel), evaluate(rhs, panel)
    return _max_abs_deviation(a, b, panel, context)


def check_functor_laws(
    F: Functor,
    sample_morphisms: Sequence[MorphismSpec],
    panel: Panel,
    tol: float | None = None,
) -> CheckReport:
    """Verify F(id) = id on every sampled endpoint and
    ``evaluate(F(g . f)) = evaluate(F(g) . F(f))`` on every composable pair.

    The tolerance is :func:`check_commutes`' rule: ``tol``, or when it is
    None ``1e-9 * max(1, max |values|)`` per check (``1e-9`` where the two
    specifications are equal and nothing is evaluated)."""
    seen = dict.fromkeys(obj for m in sample_morphisms for obj in (m.source, m.target))
    sides = [
        ("identity", obj, F.map_morphism(identity(obj)), identity(F.map_object(obj).id))
        for obj in seen
    ]
    sides += [
        (
            "composition",
            f"{f.source}->{f.target}->{g.target}",
            F.map_composite(f, g),
            compose(F.map_morphism(f), F.map_morphism(g)),
        )
        for f in sample_morphisms
        for g in sample_morphisms
        if f.target == g.source
    ]
    checks = []
    for law, subject, lhs, rhs in sides:
        dev, magnitude = _law_deviation(lhs, rhs, panel, f"the {law} law at {subject}")
        law_tol = _tolerance(tol, magnitude)
        passed = dev is not None and dev <= law_tol
        checks.append(FunctorLawCheck(law, subject, dev, law_tol, passed))
    return CheckReport(tuple(checks))


# -- JSON round-trip ----------------------------------------------------------
# Field names follow docs/diagram.schema.json, so typed_json.parse reads a
# diagram file straight into Diagram, MorphismSpec and Chain, and a check one
# of them makes gets the key path; typed_json.dump writes them back. A functor
# file's morphism_map is a list of {"from", "to"} pairs, which _Functor turns
# into the model's dict.


@dataclass
class _MapEntry:
    from_: MorphismSpec
    to: MorphismSpec


@dataclass
class _Functor:
    object_map: dict[str, EconObject]
    name: str = ""
    morphism_map: tuple[_MapEntry, ...] = ()

    def __post_init__(self) -> None:
        morphisms = {entry.from_: entry.to for entry in self.morphism_map}
        self.functor = Functor(self.name, self.object_map, morphisms)


def functor_from_json(doc) -> Functor:
    return parse(_Functor, doc, "functor").functor
