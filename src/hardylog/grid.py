"""Uniform real-line sampling, tail-corrected quadrature, and the height ladder.

Everything here is immutable after construction and all operations are pure,
so concurrent use is safe.  Reductions are plain left-to-right numpy sums,
which keeps results bit-for-bit reproducible.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import partial, reduce
from pathlib import Path
from typing import Callable, Optional

import numpy as np


class PreconditionError(ValueError):
    """An operation was called with data violating its contract."""


class NonIntegrableError(PreconditionError):
    """Raised when quadrature is requested for a non-integrable decay class."""


# ---------------------------------------------------------------------------
# decay classes
# ---------------------------------------------------------------------------

_VALID_TAGS = ("rapid", "power", "log_growth")


@dataclass(frozen=True)
class DecayClass:
    """Tail behaviour of a sampled function beyond the grid window.

    ``rapid``      tails are numerically zero (Gaussians, compact support).
    ``power``      |f(x)| ~ |f(edge)| * (edge/|x|)**p with a finite p > 1, so
                   tails integrate to a finite closed-form correction.
    ``log_growth`` no decay at all (may grow logarithmically); such functions
                   are never integrated directly and operations requiring
                   integrability reject them.

    ``bounded`` flags sup-norm finiteness over the whole line: forced for the
    decaying classes, and stated by ``BOUNDED``, written log_growth:bounded.
    """

    tag: str
    p: Optional[float] = None
    bounded: bool = False

    def __post_init__(self):
        if self.tag not in _VALID_TAGS:
            raise PreconditionError(f"unknown decay tag {self.tag!r}")
        if self.tag == "power":
            if self.p is None or not (self.p > 1.0 and np.isfinite(self.p)):
                raise PreconditionError("power decay requires a finite p > 1")
        elif self.p is not None:
            raise PreconditionError(f"decay tag {self.tag!r} takes no exponent")
        if self.integrable:
            object.__setattr__(self, "bounded", True)

    @property
    def integrable(self) -> bool:
        return self.tag != "log_growth"

    def __str__(self) -> str:
        if self.tag == "power":
            return f"power:{self.p:.17g}"
        return "log_growth:bounded" if self == BOUNDED else self.tag

    @classmethod
    def parse(cls, text: str) -> "DecayClass":
        if text.startswith("power:"):
            return cls("power", float(text.split(":", 1)[1]))
        return BOUNDED if text == str(BOUNDED) else cls(text)


RAPID = DecayClass("rapid")
LOG_GROWTH = DecayClass("log_growth")
BOUNDED = DecayClass("log_growth", bounded=True)


def power_decay(p: float) -> DecayClass:
    return DecayClass("power", p)


def product_decay(a: DecayClass, b: DecayClass) -> DecayClass:
    """Tail class of a pointwise product; bounded times bounded is bounded."""
    if a.tag == "rapid" or b.tag == "rapid":
        return RAPID
    if a.tag == "power" and b.tag == "power":
        return power_decay(a.p + b.p)
    if a.tag == "power":
        return a
    if b.tag == "power":
        return b
    return BOUNDED if a.bounded and b.bounded else LOG_GROWTH


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric grid x_j = -L + j*dx, j = 0..n-1, dx = 2L/n."""

    L: float
    n: int
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = -self.L + self.dx * np.arange(self.n)
        nodes.setflags(write=False)
        object.__setattr__(self, "_nodes", nodes)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def index_of(self, x: float) -> int:
        """Nearest-node index for a coordinate inside the window."""
        j = int(round((x + self.L) / self.dx))
        if not 0 <= j < self.n:
            raise PreconditionError(f"x={x} outside grid window [{-self.L}, {self.L})")
        return j


def make_grid(L: float, n: int) -> Grid1D:
    """Build the uniform grid; n must be a power of two, n >= 16, L > 0 with
    2L finite."""
    if not L > 0:
        raise PreconditionError(f"half-width must be positive, got {L}")
    if not np.isfinite(2.0 * L):
        raise PreconditionError(f"window width 2L must be finite, got L={L}")
    if n < 16 or (n & (n - 1)) != 0:
        raise PreconditionError(f"sample count must be a power of two >= 16, got {n}")
    return Grid1D(float(L), int(n))


# ---------------------------------------------------------------------------
# declared terms
# ---------------------------------------------------------------------------

# the fields each kind's text form lists, in order; the complex kinds
# write their coefficient as re,im
_TERM_FIELDS = {"exp": ("coef", "w"), "cos": ("coef", "w"),
                "atan": ("coef", "s", "w"), "log": ("coef", "s", "w"),
                "const": ("coef",)}
_COMPLEX_KINDS = ("exp", "const")


@dataclass(frozen=True)
class Term:
    """One declared term of a boundary function, with exact samples, an
    exact Poisson extension and a text form ``kind:<numbers>``:

    ======  ========================  ============================  =======
    kind    term at u                 P_y extension at x            numbers
    ======  ========================  ============================  =======
    exp     c e^{iwu}                 c e^{-|w|y} e^{iwx}           re,im,w
    cos     a cos(wu)                 a e^{-|w|y} cos(wx)           a,w
    atan    a (2/pi) arctan((u-s)/w)  a (2/pi) arctan((x-s)/(w+y))  a,s,w
    log     a log|u-s+iw|             a log|x-s+i(w+y)|             a,s,w
    const   c                         c                             re,im
    ======  ========================  ============================  =======

    The coefficient ``coef`` is c or a; only exp and const take a complex
    one, so the other kinds keep real data real.  atan and log take a width
    w >= 0 (``log:a,s`` is w = 0); atan's w = 0 is a sgn(u-s), sgn(0) = 0.
    """

    kind: str
    coef: complex
    w: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if self.kind not in _TERM_FIELDS:
            raise PreconditionError(f"unknown term kind {self.kind!r}")
        coef, w, s = complex(self.coef), float(self.w), float(self.s)
        if not np.isfinite([coef.real, coef.imag, w, s]).all():
            raise PreconditionError(f"{self.kind} term needs finite numbers")
        if any(getattr(self, k) != 0.0 for k in ("w", "s")
               if k not in _TERM_FIELDS[self.kind]):
            raise PreconditionError(f"{self.kind} term takes no other number")
        if self.kind not in _COMPLEX_KINDS:
            if coef.imag != 0.0:
                raise PreconditionError(f"{self.kind} term needs a real a")
            coef = coef.real
        if w < 0.0 and self.kind in ("atan", "log"):
            raise PreconditionError(f"{self.kind} term needs a width w >= 0")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "s", s)

    def at(self, u, floor: float = 0.0) -> np.ndarray:
        """The term at points u; log's |u - s + iw| is raised to ``floor``,
        the sampling convention of a node on its singularity."""
        if self.kind == "exp":
            return self.coef * np.exp(
                1j * self.w * np.asarray(u, dtype=np.complex128))
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "cos":
            return self.coef * np.cos(self.w * u)
        if self.kind == "atan":
            if self.w == 0.0:
                return self.coef * np.sign(u - self.s)
            return self.coef * (2.0 / np.pi) * np.arctan((u - self.s) / self.w)
        if self.kind == "log":
            return self.coef * np.log(np.maximum(np.hypot(u - self.s, self.w),
                                                 floor))
        return np.full(u.shape, self.coef, dtype=np.complex128)

    def extend(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """P_y of the term at points x and positive heights y, broadcast."""
        if self.kind == "exp":
            return self.coef * np.exp(-abs(self.w) * y) * np.exp(1j * self.w * x)
        if self.kind == "cos":
            return self.coef * np.exp(-abs(self.w) * y) * np.cos(self.w * x)
        if self.kind == "atan":
            return self.coef * (2.0 / np.pi) * np.arctan(
                (x - self.s) / (self.w + y))
        if self.kind == "log":
            return self.coef * np.log(np.hypot(x - self.s, self.w + y))
        return np.full(np.broadcast(x, y).shape, self.coef,
                       dtype=np.complex128)

    def conjugate(self) -> tuple:
        """Terms whose samples are H of this term and whose P_y is its Q_y,
        with no constant: exp c -> -i sgn(w) c, cos -> a sin(|w|u) as two
        exps, atan <-> log by (2/pi) a and -(pi/2) a, const -> 0."""
        c, w, s = self.coef, self.w, self.s
        if self.kind == "exp":
            return (Term("exp", -1j * np.sign(w) * c, w=w),)
        if self.kind == "cos":
            return (Term("exp", -0.5j * c, w=abs(w)),
                    Term("exp", 0.5j * c, w=-abs(w)))
        if self.kind == "atan":
            return (Term("log", 2.0 / np.pi * c, w=w, s=s),)
        if self.kind == "log":
            return (Term("atan", -0.5 * np.pi * c, w=w, s=s),)
        return (Term("const", 0.0),)

    def __str__(self) -> str:
        nums = [getattr(self, k) for k in _TERM_FIELDS[self.kind]]
        if self.kind in _COMPLEX_KINDS:
            nums[:1] = [self.coef.real, self.coef.imag]
        return f"{self.kind}:" + ",".join(f"{v:.17g}" for v in nums)

    @classmethod
    def parse(cls, text: str) -> "Term":
        """Inverse of str(); a malformed term raises PreconditionError."""
        kind, _, rest = text.partition(":")
        if kind not in _TERM_FIELDS:
            raise PreconditionError(f"unknown term kind {kind!r}")
        try:
            nums = [float(v) for v in rest.split(",")]
        except ValueError as exc:
            raise PreconditionError(f"unparsable term {text!r}") from exc
        fields = _TERM_FIELDS[kind]
        if kind == "log" and len(nums) == 2:   # written before log's width
            nums.append(0.0)
        if len(nums) != len(fields) + (kind in _COMPLEX_KINDS):
            raise PreconditionError(f"term {text!r} has the wrong count of "
                                    f"numbers for {kind}")
        if kind in _COMPLEX_KINDS:
            nums[:2] = [complex(nums[0], nums[1])]
        return cls(kind, **dict(zip(fields, nums)))


def tail_values(tail: tuple, u, floor: float = 0.0) -> np.ndarray:
    """The sum of the terms at points u, added in the order declared."""
    return reduce(np.add, (t.at(u, floor) for t in tail))


def tail_samples(tail: tuple, grid: Grid1D) -> np.ndarray:
    """The sum of the terms on the grid's nodes; a node on a log
    singularity is read at dx/2 from it."""
    return tail_values(tail, grid.nodes, 0.5 * grid.dx)


def tail_extension(tail: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P_y of the sum of the terms at points x and heights y, broadcast."""
    return reduce(np.add, (t.extend(x, y) for t in tail))


# ---------------------------------------------------------------------------
# sampled boundary functions
# ---------------------------------------------------------------------------

def frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only: a SampledFunction or HalfPlaneField built on a
    frozen complex array that owns its data takes it over, not a copy."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples on a Grid1D with declared tail behaviour.

    ``continuation``, when given, evaluates the function off-grid in closed
    form; convolution-type operators use it to fill extended windows and
    analytic tails.  ``tail`` declares terms (``Term``) whose sum the
    function is, up to samples that vanish off the window: the sum is then
    the continuation, and the Poisson extension takes the terms exactly.
    ``values`` are read-only: a read-only complex array that owns its data
    (``frozen``) is taken over, any other array copied.
    """

    grid: Grid1D
    values: np.ndarray
    decay: DecayClass
    continuation: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False)
    tail: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise PreconditionError(
                f"value count {vals.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise PreconditionError("sampled values must all be finite")
        if vals.flags.writeable or not vals.flags.owndata:
            vals = frozen(vals.copy())
        object.__setattr__(self, "values", vals)
        if self.tail:
            if self.continuation is not None:
                raise PreconditionError(
                    "declared terms are their own continuation")
            object.__setattr__(self, "tail", tuple(self.tail))
            object.__setattr__(self, "continuation",
                               partial(tail_values, self.tail))

    @classmethod
    def declared(cls, grid: Grid1D, tail: tuple, decay: DecayClass
                 ) -> "SampledFunction":
        """The sum of the terms, sampled on the grid's nodes."""
        return cls(grid, tail_samples(tail, grid), decay, tail=tail)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values, self.decay)

    def abs(self) -> "SampledFunction":
        """|f| on the grid; integrate reads no continuation, so none is kept."""
        return SampledFunction(self.grid, np.abs(self.values), self.decay)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def line_integral(grid: Grid1D, values: np.ndarray, p: Optional[float] = None):
    """Whole-line quadrature of samples along the last axis.

    Composite trapezoid over the window [-L, L-dx], plus, when a tail
    exponent p > 1 is given, the closed-form tail integral assuming
    |f| ~ |f(edge)|*(edge/x)**p outside it.  Deterministic (fixed summation
    order).
    """
    first, last = values[..., 0], values[..., -1]
    total = grid.dx * (values.sum(axis=-1) - 0.5 * (first + last))
    if p is not None:
        x = grid.nodes
        total += (first * abs(x[0]) + last * abs(x[-1])) / (p - 1.0)
    return total


def integrate(f: SampledFunction):
    """Quadrature of f over the whole line: trapezoid core plus analytic tail.

    Returns a float for real input, complex otherwise.  Rejects log_growth
    decay.
    """
    if not f.decay.integrable:
        raise NonIntegrableError("non-integrable decay class log_growth")
    total = line_integral(f.grid, f.values, f.decay.p)
    if f.is_real:
        return float(total.real)
    return complex(total)


def integrate_window(grid: Grid1D, values: np.ndarray, a: float, b: float) -> float:
    """Integral of the piecewise-linear interpolant of real samples over [a, b].

    Outside the sampled window the edge value is held constant (the window
    overhang is at most one cell in practice).
    """
    if b <= a:
        raise PreconditionError("empty integration window")
    vals = np.asarray(values, dtype=np.float64)
    x = grid.nodes
    inside = x[(x > a) & (x < b)]
    pts = np.concatenate(([a], inside, [b]))
    fv = np.interp(pts, x, vals)
    return float(np.trapezoid(fv, pts))


# ---------------------------------------------------------------------------
# height ladder and half-plane fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeightLadder:
    """Strictly increasing positive heights, logarithmically spaced."""

    levels: tuple

    def __post_init__(self):
        y = np.asarray(self.levels, dtype=np.float64)
        if y.size < 8:
            raise PreconditionError("ladder needs at least 8 levels")
        if y[0] <= 0 or not np.all(np.isfinite(y)):
            raise PreconditionError("ladder heights must be positive and finite")
        if not np.all(np.diff(y) > 0):
            raise PreconditionError("ladder heights must be strictly increasing")
        if y[-1] < 1.0:
            raise PreconditionError("ladder must reach y_max >= 1")
        object.__setattr__(self, "levels", tuple(float(v) for v in y))

    @property
    def y(self) -> np.ndarray:
        return np.asarray(self.levels)

    @property
    def count(self) -> int:
        return len(self.levels)


def make_ladder(y_min: float, y_max: float, count: int = 48) -> HeightLadder:
    """Logarithmically spaced ladder from y_min to y_max."""
    if not 0 < y_min < y_max < np.inf:
        raise PreconditionError("need 0 < y_min < y_max < inf")
    # a negative count is a too-short ladder, which HeightLadder rejects
    return HeightLadder(tuple(np.geomspace(y_min, y_max, max(count, 0))))


@dataclass(frozen=True)
class HalfPlaneField:
    """Values f(x_j + i*y_k) on grid x ladder; row k is the height-y_k slice.
    ``values`` are kept as ``SampledFunction`` keeps its samples."""

    grid: Grid1D
    ladder: HeightLadder
    values: np.ndarray
    decay: DecayClass

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.ladder.count, self.grid.n):
            raise PreconditionError(
                f"field shape {vals.shape} does not match ladder x grid "
                f"({self.ladder.count}, {self.grid.n})")
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise PreconditionError("field values must all be finite")
        if vals.flags.writeable or not vals.flags.owndata:
            vals = frozen(vals.copy())
        object.__setattr__(self, "values", vals)

    def slice_at(self, k: int) -> SampledFunction:
        return SampledFunction(self.grid, self.values[k], self.decay)


def sample_field(grid: Grid1D, ladder: HeightLadder,
                 fn: Callable[[np.ndarray], np.ndarray],
                 decay: DecayClass = RAPID) -> HalfPlaneField:
    """Evaluate a closed-form function of z = x + iy on grid x ladder, one
    height at a time into one array; fn must act elementwise."""
    vals = np.empty((ladder.count, grid.n), dtype=np.complex128)
    for row, y in zip(vals, ladder.y[:, None]):
        row[:] = fn(grid.nodes + 1j * y)
    return HalfPlaneField(grid, ladder, frozen(vals), decay)


# ---------------------------------------------------------------------------
# columnar serialization:  "# L=<real> n=<int> decay=<tag> [tail=<terms>]"
# then "x re im"
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^#\s*L=([^\s]+)\s+n=(\d+)\s+decay=([^\s]+)(?:\s+tail=([^\s]*))?\s*$")


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path via a temp file and rename, creating the directory.

    The temp file is created with mode 0o666, so the file ends up with the
    usual 0o666 & ~umask permissions (mkstemp would force 0o600).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp_{os.urandom(8).hex()}{path.suffix}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_function(f: SampledFunction, path) -> None:
    header = f"# L={f.grid.L:.17g} n={f.grid.n} decay={f.decay}"
    if f.tail:
        header += " tail=" + ";".join(str(t) for t in f.tail)
    rows = map("{:.17g} {:.17g} {:.17g}".format, f.grid.nodes.tolist(),
               f.values.real.tolist(), f.values.imag.tolist())
    _atomic_write(Path(path), "\n".join((header, *rows)) + "\n")


def load_function(path) -> SampledFunction:
    """Parse a function file; any malformed content raises PreconditionError.

    The header fixes the grid, and the x column must match its nodes; its
    optional ``tail=`` field lists declared terms, ``;``-separated in the
    text form of ``Term``.
    """
    try:
        text = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path}: not a text file ({exc})") from exc
    if not text:
        raise PreconditionError(f"{path}: empty function file")
    m = _HEADER_RE.match(text[0])
    if not m:
        raise PreconditionError(f"{path}: malformed header {text[0]!r}")
    rows = [ln.split() for ln in text[1:] if ln.strip()]
    try:
        L, n = float(m.group(1)), int(m.group(2))
        decay = DecayClass.parse(m.group(3))
        tail = () if m.group(4) is None else tuple(
            Term.parse(t) for t in m.group(4).split(";"))
        data = np.array([v for r in rows for v in r], dtype=np.float64)
    except ValueError as exc:
        raise PreconditionError(f"{path}: unparsable field ({exc})") from exc
    if len(rows) != n:
        raise PreconditionError(f"{path}: expected {n} samples, found {len(rows)}")
    if any(len(r) != 3 for r in rows):
        raise PreconditionError(f"{path}: every sample row needs x re im")
    grid = make_grid(L, n)
    x, real, imag = data.reshape(n, 3).T
    dev = np.max(np.abs(x - grid.nodes))
    if not dev <= 1e-9 * grid.dx:
        raise PreconditionError(
            f"{path}: x column is off the header's grid nodes by {dev:g}")
    vals = np.empty(n, dtype=np.complex128)
    vals.real, vals.imag = real, imag   # real + 1j*imag loses signed zeros
    return SampledFunction(grid, vals, decay, tail=tail)
