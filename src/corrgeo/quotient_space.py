"""The quotient of the product of spheres by a common rotation of all rows.

Two unit-row matrices are identified when one is the other times a single
orthogonal k x k matrix; orbits correspond one-to-one with correlation
matrices of rank at most k. The quotient distance is the product-sphere
distance after the best aligning rotation, found by Riemannian
trust-region Newton iterations on O(k) (closed-form gradient and
Hessian-vector products on k x k skew matrices, truncated-CG steps, no
Hessian matrix, steps retracted by the Cayley transform) from a Procrustes
start plus random restarts. The package has one such search, of the
unordered pair (the random starts and their transposes): align,
orbit_dist, orbit_log and the Frechet mean's alignments run it, so they
agree bit for bit and cost the same. One solve takes all starts of all
pairs of a batch (a cohort, a mean's samples) as one lockstep stack, a
large batch in chunks of whole pairs under a fixed memory budget; align is
the batch of one pair. The loss is convex on the convex hull of O(k), so
a converged start without clamped rows can certify from its own model
that it found the pair's global minimum within CERTIFY_TOL (_certify);
its live siblings then retire. A pair whose first start (Procrustes, a
warm start) is within START_TOL of that bound, without clamped rows, at
the initial evaluation holds its random starts pending until every other
start has stopped uncertified, and retires them unrun when one certifies.
_start_rule is this policy, the solver's idle rule. A retired start never
wins, and pairs never interact, so batching moves no number.

Logs and exponentials act row by row on representatives; a log's
horizontality defect is its search's gradient norm. Rank along a geodesic
is read from stacked SVDs of points on the path. Escape times scan a grid
of smallest singular values in two passes: every 32nd time first, then the
dense times only in the coarse intervals where the gap's Lipschitz bound
cannot certify that it stays positive, and they zoom into the dips found
there in stacked brackets. Both directions share one batched coarse
evaluation, and one dense one: exp(X, (-t) V) is exp(X, t (-V)) bit for
bit.

Public entry points check each input once (check_unit_rows, the shape
match); the internal helpers they call take checked arrays.
"""

import functools
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .config import DEFAULT_CONFIG, RESULT, SolverConfig, SolverReport, is_number
from .errors import AlignmentStagnation, InvalidInput
from .fixed_rank import HorizontalTangent, _check_horizontal
from .kernels import (
    RANK_RELATIVE,
    _polar,
    cayley,
    numerical_rank,
    random_orthogonal,
    rank_threshold,
    skew_part,
)
from .product_sphere import (
    ProductTangent,
    _HessianOp,
    _angle_factors,
    _check_time,
    _great_circles,
    _log_rows,
    _rep,
    _report_fields,
    _row_angles,
    _tangent_vec,
    _trust_region,
    check_unit_rows,
    unit_rows,
)


@dataclass(frozen=True)
class OrbitPoint:
    """An orbit, stored through one unit-row representative."""

    rep: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rep", check_unit_rows(self.rep, "rep"))

    @classmethod
    def _at(cls, rep):
        """cls(rep) for a rep that passed check_unit_rows: no second check."""
        point = object.__new__(cls)
        object.__setattr__(point, "rep", rep)
        return point

    @property
    def m(self) -> int:
        return self.rep.shape[0]

    @property
    def k(self) -> int:
        return self.rep.shape[1]


def as_orbit(X, name="rep") -> OrbitPoint:
    """Coerce a unit-row matrix (or pass through an OrbitPoint); errors call it name."""
    return X if isinstance(X, OrbitPoint) else OrbitPoint._at(check_unit_rows(X, name))


@dataclass(frozen=True, kw_only=True)
class SearchReport(SolverReport):
    """Diagnostics of one pair's rotation search, without its matrices.

    The SolverReport fields are those of the winning start at its returned
    rotation. restarts_used counts the search's starts, retired those of
    them that left early, or never ran, because a sibling start certified
    the pair's global minimum (the module docstring's start policy).
    Every record of a search (AlignmentResult, pipeline.PairReport)
    extends this one, and both CLI reports print it.
    """

    restarts_used: int
    retired: int


@dataclass(frozen=True, kw_only=True)
class AlignmentResult(SearchReport):
    """Outcome of the rotation search between two orbit representatives.

    rotation is the minimizing O, aligned the equivalent second
    representative Y O^T, so the product-sphere distance from X to aligned
    is sqrt(loss).
    """

    rotation: np.ndarray = field(metadata=RESULT)
    aligned: np.ndarray = field(metadata=RESULT)


def _alignment_model(X, Y):
    """Closed-form trust-region model of the alignment loss on O(k).

    X and Y are one pair of m x k representatives, or stacks (R, m, k)
    holding the pair of each member of a trust-region stack; model(O,
    members) then evaluates the pairs of the listed members. A step is a
    k x k skew matrix W, flattened, and the retraction is O cay(W), the
    Cayley transform (kernels.cayley), second order like O expm(W). With
    u_i the rows of U = X O, phi(c) = arccos(c)^2 and G = U^T diag(phi') Y,
    the gradient is skew(G) and, for a skew step W,
      H W = skew(U^T diag(phi'' * rowsum((U W) o Y)) Y - W S),  S = sym(G),
    the Riemannian Hessian applied in O(m k^2 + k^3) from U, Y, phi'' and
    S: 2 m k + m + k^2 floats per member. O skew(G) is the Riemannian
    gradient, so |g|_F is its norm. The gradient, and every step truncated
    CG builds from it and the products, is skew bit for bit.
    """
    k = X.shape[-1]

    def project(U, Y, curv, S, d):
        return skew_part(d.reshape(*d.shape[:-1], k, k)).reshape(d.shape)

    def product(U, Y, curv, S, d):
        W = d.reshape(*d.shape[:-1], k, k)
        v = curv * np.einsum("...ij,...ij->...i", U @ W, Y)
        return skew_part(np.swapaxes(U * v[..., None], -1, -2) @ Y - W @ S).reshape(d.shape)

    def model(O, members=None):
        # O is one rotation or a stack; members share one pair or index
        # theirs, and each member's Hessian holds its own copy of its pair
        if X.ndim == 3:
            U, Ym = X[members] @ O, Y[members]
        else:
            U = X @ O
            Ym = np.broadcast_to(Y, U.shape).copy()
        c, th = _row_angles(U, Ym)
        coef, curv, clamped = _angle_factors(c, th)
        G = np.swapaxes(U * coef[..., None], -1, -2) @ Ym
        S = 0.5 * (G + np.swapaxes(G, -1, -2))
        H = _HessianOp(product, project, k * k, k * (k - 1) // 2, U, Ym, curv, S)
        g = skew_part(G).reshape(*G.shape[:-2], k * k)
        return np.einsum("...i,...i->...", th, th), g, H, clamped

    def retract(O, s):
        return O @ cayley(s.reshape(O.shape))

    return model, retract


# Gap, relative to max(1, loss), up to which _certify accepts a rotation.
# The computed gap carries rounding of about eps (|tr G| + |G|_*) <= 2 eps
# sum_i 2 theta_i / sin theta_i, and a stop at gradient norm g (rounding
# level at a converged stop) adds up to sqrt(k) g: far below 1e-9 at
# moderate angles, and a certified loss is within 1e-9 relative of the
# global minimum. Of 300 mixed-rank winners 276 certify at 1e-9 and 271 at
# 1e-12, which costs the geodesic_rank pool 9% more Hessian products.
CERTIFY_TOL = 1e-9
# Gap, relative to max(1, loss), up to which a pair's first start (the
# Procrustes rotation, a warm start) counts as near its bound, so that the
# pair runs its first starts alone. On sample correlations Procrustes
# starts at gaps of 1e-8 to 3e-4 and certifies; of 1,000 random and
# mixed-rank pairs, 96 start within 1e-3 and all certify from a first
# start, while 1e-2 admits 2 pairs that do not and 1e-1 admits 48.
START_TOL = 1e-3


def _certify(loss, g, H, members, tol):
    """Whether the listed members' rotations are within tol of their pairs' minimum.

    phi(c) = arccos(c)^2 is convex, so the loss is convex on the spectral
    ball, the convex hull of O(k), and lies above its linearization at O:
    min f >= f(O) - tr G - |G|_*, G = U^T diag(phi') Y (Boyd & Vandenberghe,
    2004, sec. 5). G is S + skew(G), S = sym(G) from the Hessian's state
    and g = skew(G); one batched k x k singular-value call gives the gap.
    loss, g and H are the stack's; members indexes them. Valid only
    without clamped rows (_start_rule checks). Returns gap <= tol max(1,
    loss) per member: CERTIFY_TOL certifies, START_TOL gates the starts.
    """
    S = H.state[3][members]
    G = S + g[members].reshape(S.shape)
    gap = np.trace(G, axis1=-2, axis2=-1) + np.linalg.svd(G, compute_uv=False).sum(axis=-1)
    return gap <= tol * np.maximum(1.0, loss[members])


def _start_rule(n, R, wait):
    """The module docstring's start policy for n pair searches of R consecutive starts.

    wait marks the starts of a pair that may wait, the others are its first
    starts. Returns (idle, retired): the _trust_region idle rule, and the
    (n, R) mask of the starts it retires, filled in as the solve runs.
    """
    retired = np.zeros((n, R), dtype=bool)
    pending = np.zeros((n, R), dtype=bool)
    first = np.flatnonzero(~np.tile(wait, n))

    def idle(stopped, loss, g, H, clamped, done):
        done = done.reshape(n, R)
        if not done.any():  # the initial evaluation: the gate on first starts
            if wait.any():
                near = first[_certify(loss, g, H, first, START_TOL)]
                pending[near[~clamped[near].any(axis=1)] // R] = wait
        else:
            # converged stops without clamped rows, in pairs with starts to run
            c = stopped[~clamped[stopped].any(axis=1)]
            c = c[~(done | retired)[c // R].all(axis=1)]
            if c.size:
                b = c[_certify(loss, g, H, c, CERTIFY_TOL)] // R
                retired[b] |= ~done[b]
            # pending starts join once every other start of their pair stopped
            pending[(done | retired | pending).all(axis=1)] = False
        return (retired | pending).ravel()

    return idle, retired


@functools.lru_cache(maxsize=32)
def _unordered_starts(k, restarts, seed):
    """The seeded starts of every pair search, built once (read-only): the
    restarts - 1 random rotations drawn from seed, then their transposes."""
    rng = np.random.default_rng(seed)
    rand = np.reshape([random_orthogonal(k, rng) for _ in range(restarts - 1)], (-1, k, k))
    both = np.concatenate([rand, np.swapaxes(rand, -1, -2)])
    both.flags.writeable = False
    return both


# Floats of model data one stacked solve may hold. A member (one start of
# one pair) holds O(m k + k^2) floats: the rows U and Y of its model (in
# the current and the trial model and the active copy), the temporaries of
# an evaluation and a product, its k x k blocks and truncated-CG vectors;
# _member_floats is within 5% of a stack's traced peak per member at m = k
# from 10 to 116. _align_pairs stacks and solves a batch in chunks of
# whole pairs within this budget and yields each chunk's results before
# stacking the next, so a batch's working set stays flat in the number of
# pairs (peak about 8 bytes times it, except that a chunk holds at least
# one pair: at m = k = 116 one pair's 9 starts are charged 3.6 M floats).
# Pairs never interact (a start is retired only because of its own pair's
# starts), so the chunking moves no number.
_STACK_FLOATS = 2**20


def _member_floats(m, k):
    """The floats _STACK_FLOATS charges one member of an m x k alignment stack."""
    return 12 * m * k + 18 * k * k


def _checked_starts(extra_inits, P, k):
    """extra_inits (per pair an equally long list of starts) as a (P, E, k, k) array;
    InvalidInput unless every start is finite, k x k and orthogonal within 1e-8."""
    if extra_inits is None:
        return np.empty((P, 0, k, k))
    try:
        extra = np.asarray(extra_inits, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInput(f"extra_inits must hold {k} x {k} rotations") from None
    if extra.shape == (P, 0):
        return extra.reshape(P, 0, k, k)
    if extra.ndim != 4 or extra.shape[0] != P or extra.shape[2:] != (k, k):
        raise InvalidInput(f"extra_inits must hold {k} x {k} rotations, got {extra.shape[1:]}")
    if not np.isfinite(extra).all():
        raise InvalidInput("extra_inits has non-finite entries")
    dev = np.abs(np.swapaxes(extra, -1, -2) @ extra - np.eye(k)).max(initial=0.0)
    if dev > 1e-8:
        raise InvalidInput(f"extra_inits are not orthogonal (|O^T O - I| up to {dev:.3e})")
    return extra


def _align_pairs(Xs, Ys, cfg: SolverConfig = DEFAULT_CONFIG, extra_inits=None):
    """The rotation search of each unordered pair (Xs[p], Ys[p]), all starts in one stack.

    Xs and Ys hold unit-row matrices of one shape, checked by the caller;
    extra_inits holds per pair an equally long list of further starts
    carrying Xs[p] onto Ys[p]'s orbit (_checked_starts). Each pair is
    searched in the order of its representatives' bytes from R starts: the
    Procrustes rotation (one batched polar factor), the _unordered_starts
    and its extra starts, transposed with the pair, so (Y, X) gets the
    search of (X, Y) under O -> O^T bit for bit. Each chunk of whole pairs
    within _STACK_FLOATS is one lockstep trust-region solve in blocks of R
    starts, one block per pair, whose random starts wait and retire as the
    module docstring says; per pair the first lowest loss over the starts
    not retired wins. Yields one AlignmentResult per pair, for (Xs[p],
    Ys[p]), in order, as its chunk's solve returns: a consumer that keeps
    only each pair's loss and record holds one chunk at a time.
    """
    P = len(Xs)
    if not P:
        return
    m, k = Xs[0].shape
    extra = _checked_starts(extra_inits, P, k)
    rand = _unordered_starts(k, cfg.restarts, cfg.seed)
    R = 1 + len(rand) + extra.shape[1]
    # the seeded random starts wait while a pair's first starts are near their bound
    wait = np.zeros(R, dtype=bool)
    wait[1 : 1 + len(rand)] = True
    chunk = max(1, _STACK_FLOATS // (R * _member_floats(m, k)))
    for lo in range(0, P, chunk):
        Xc, Yc = Xs[lo : lo + chunk], Ys[lo : lo + chunk]
        swap = np.array([Y.tobytes() < X.tobytes() for X, Y in zip(Xc, Yc, strict=True)])
        A = np.stack([Y if s else X for X, Y, s in zip(Xc, Yc, swap)])
        B = np.stack([X if s else Y for X, Y, s in zip(Xc, Yc, swap)])
        n = len(A)
        ex = extra[lo : lo + chunk]
        starts = np.concatenate(
            [
                _polar(np.swapaxes(A, -1, -2) @ B)[:, None],
                np.broadcast_to(rand, (n, *rand.shape)),
                np.where(swap[:, None, None, None], np.swapaxes(ex, -1, -2), ex),
            ],
            axis=1,
        )
        model, retract = _alignment_model(np.repeat(A, R, axis=0), np.repeat(B, R, axis=0))
        idle, retired = _start_rule(n, R, wait)
        solve = _trust_region(model, retract, starts.reshape(n * R, k, k), cfg, idle)
        # a retired start never wins, ties included
        best = np.argmin(np.where(retired, np.inf, solve.loss.reshape(n, R)), axis=1)
        for p, b in enumerate(R * np.arange(n) + best):
            rot = solve.x[b].copy()
            # a swapped pair's rotation carries Ys[p] onto Xs[p]'s orbit
            yield AlignmentResult(
                rotation=rot.T if swap[p] else rot,
                aligned=A[p] @ rot if swap[p] else B[p] @ rot.T,
                restarts_used=R,
                retired=int(retired[p].sum()),
                **_report_fields(solve, b, solve.clamped[b]),
            )


def align(X, Y, cfg: SolverConfig = DEFAULT_CONFIG, extra_inits=()) -> AlignmentResult:
    """Best common rotation carrying X onto Y's orbit representative.

    Trust-region Newton iterations on O(k) for the sum of squared row
    angles between X O and Y: the search of orbit_dist and orbit_log, so
    sqrt(loss) is orbit_dist(X, Y) and align(Y, X) is align(X, Y) with the
    rotation transposed, and a call costs what orbit_dist costs. The
    unordered pair is searched from the Procrustes rotation, the
    cfg.restarts - 1 seeded random rotations and their transposes, and any
    caller-supplied extra_inits (k x k rotations, else InvalidInput), as
    one lockstep stack.
    """
    X, Y = _checked_pair(X, Y)
    return next(_align_pairs([X], [Y], cfg, [extra_inits]))


def _checked_pair(X, Y):
    """The unit-row matrices of X and Y (orbit points or arrays), of one shape."""
    X, Y = _rep(X, "X"), _rep(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidInput(f"shape mismatch {X.shape} vs {Y.shape}")
    return X, Y


def _dist(r: AlignmentResult) -> float:
    """Quotient distance of a pair from its alignment: sqrt of the loss."""
    return float(np.sqrt(max(r.loss, 0.0)))


def orbit_dist(X, Y, cfg: SolverConfig = DEFAULT_CONFIG, extra_inits=()) -> float:
    """Quotient distance: aligned product-sphere distance, exactly symmetric."""
    return _dist(align(X, Y, cfg, extra_inits))


EQUALITY_TOL = 1e-8  # orbit distance at or below which two points are the same


def orbit_equal(X, Y, cfg: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Whether two representatives lie on the same orbit within EQUALITY_TOL."""
    return orbit_dist(X, Y, cfg) <= EQUALITY_TOL


def orbit_log(X, Y, cfg: SolverConfig = DEFAULT_CONFIG) -> HorizontalTangent:
    """Logarithm in the quotient: rowwise log toward the aligned representative.

    Aligns Y to X by orbit_dist's search of the unordered pair, so |log| is
    the distance, then takes the product-sphere logarithm. First-order
    optimality of the alignment is exactly horizontality of the log: at the
    aligned representative |V^T X - X^T V|_F is the norm of the search's
    gradient skew(G), so the tangent's defect is the search's grad_norm, at
    every rank. A failed search (SolverReport.failed) raises
    AlignmentStagnation.
    """
    X, Y = _checked_pair(X, Y)
    r = next(_align_pairs([X], [Y], cfg))
    if r.failed(cfg.stagnation_tol):
        raise AlignmentStagnation(
            f"rotation search failed: {r.summary()}", report=r
        )
    return HorizontalTangent._at(X, _log_rows(X, r.aligned), defect=r.grad_norm)


def orbit_exp(X, V, t: float = 1.0) -> OrbitPoint:
    """Exponential in the quotient: rowwise exponential of a horizontal tangent.

    V must be rowwise tangent and pass fixed_rank._check_horizontal at X,
    which holds it to the defect it records (orbit_log's output passes at
    any grad_tol), else InvalidInput; t must pass product_sphere._check_time.
    """
    X = _rep(X, "X")
    vec = _check_horizontal(X, V)
    _check_time(t, vec)
    return OrbitPoint._at(unit_rows(_great_circles(X, vec, t)))


@dataclass(frozen=True)
class GeodesicSegment:
    """A constant-speed geodesic t -> exp(start, t * velocity), t in [0, duration].

    velocity is a ProductTangent at start or a raw rowwise-tangent matrix
    (product_sphere._tangent_vec's rule, as for ps_exp), stored as a
    ProductTangent; duration must be positive and pass _check_time.
    """

    start: np.ndarray
    velocity: ProductTangent
    duration: float

    def __post_init__(self):
        start = check_unit_rows(self.start, "start")
        vec = _tangent_vec(start, self.velocity, "velocity is not based at the start point")
        if not (is_number(self.duration, 0) and self.duration > 0.0):
            raise InvalidInput(f"duration must be positive and finite, got {self.duration!r}")
        _check_time(self.duration, vec, "duration")
        object.__setattr__(self, "start", start)
        if not isinstance(self.velocity, ProductTangent):
            object.__setattr__(self, "velocity", ProductTangent._at(start, vec))

    def point(self, t: float) -> np.ndarray:
        """ps_exp(start, velocity, t), checking only t: the segment is checked."""
        _check_time(t, self.velocity.vec)
        return unit_rows(_great_circles(self.start, self.velocity.vec, t))


def geodesic_rank_profile(seg: GeodesicSegment, samples: int):
    """Ranks along a geodesic: both endpoints plus `samples` interior points.

    Returns a list of (t, rank) pairs in increasing t.
    """
    if not is_number(samples, 1, Integral):
        raise InvalidInput(f"samples must be an integer >= 1, got {samples!r}")
    ts = np.linspace(0.0, seg.duration, samples + 2)
    ranks = numerical_rank(_path(seg.start, seg.velocity.vec, ts))
    return [(float(t), int(r)) for t, r in zip(ts, ranks)]


def _path(X, V, ts):
    """exp(X, t V) at every t of ts, a stack of matrices (one per time).

    X and V are validated by the caller, so the rows skip ps_exp's checks.
    Each row moves along t v_i for time 1, with ps_exp's row arithmetic.
    """
    return unit_rows(_great_circles(X, ts[:, None, None] * V, 1.0))


def _gaps(X, V, ts):
    """Smallest singular value minus the rank threshold at every t of ts."""
    sig = np.linalg.svd(_path(X, V, ts), compute_uv=False)
    return sig[:, -1] - rank_threshold(sig[:, 0])


def _stays_positive(gaps, h: float, lipschitz: float) -> bool:
    """Whether the gap provably stays > 0 between samples h apart.

    Rows move at speed |v_i|, so the gap is Lipschitz in t with constant
    lipschitz = (1 + RANK_RELATIVE) |V|_F; it cannot reach zero between
    neighbours whose gaps sum to more than that constant times h.
    """
    return bool(np.min(gaps[1:] + gaps[:-1]) > lipschitz * h)


def _zoom(X, V, lo: float, hi: float, lipschitz: float):
    """First rank drop in the bracket [lo, hi], or None if the dip stays full rank.

    Each round evaluates the gap at 33 times with one batched SVD. It
    keeps the first sub-interval whose right end has gap <= 0 (a crossing,
    narrowed to 1e-7 and reported by its left end) or else the two
    sub-intervals around the smallest gap (a dip, given up at 1e-10 or as
    soon as the samples certify that it stays positive).
    """
    crossing = False
    while hi - lo > (1e-7 if crossing else 1e-10):
        ts = np.linspace(lo, hi, 33)
        gaps = _gaps(X, V, ts)
        drops = np.flatnonzero(gaps[1:] <= 0.0)
        crossing = drops.size > 0
        if crossing:
            lo, hi = ts[drops[0]], ts[drops[0] + 1]
        elif _stays_positive(gaps, ts[1] - ts[0], lipschitz):
            return None
        else:
            j = int(np.argmin(gaps))
            lo, hi = ts[max(j - 1, 0)], ts[min(j + 1, ts.size - 1)]
    return float(lo) if crossing else None


# The escape scan's dense grid has GRID intervals; its gap is taken first at every STEP-th time.
GRID, STEP = 1024, 32


def _candidates(gaps, ts, lipschitz: float):
    """A direction's candidate indices and the dense indices its scan reads.

    gaps holds the gap at every STEP-th time of ts. A coarse interval [a, b]
    with g_a + g_b > lipschitz (t_b - t_a) keeps its gap above half the
    difference, so it holds no crossing and no dip a zoom could resolve.
    The candidates are the indices i > 0 whose bracket [i - 1, i + 1] meets
    an interval the bound leaves open; their scan reads the gaps at them
    and their neighbours.
    """
    coarse = gaps[::STEP]
    open_ = coarse[:-1] + coarse[1:] <= lipschitz * np.diff(ts[::STEP])
    cand = np.unique(STEP * np.flatnonzero(open_)[:, None] + np.arange(STEP + 1))
    cand = cand[cand > 0]
    near = np.unique(np.minimum(cand[:, None] + np.arange(-1, 2), GRID))
    return cand, near[near % STEP != 0]


def _first_drop(X, V, ts, gaps, cand, lipschitz: float):
    """Smallest t in (0, ts[-1]] where the rank drops, or None. Resolved to 1e-7.

    Candidate dips on the dense grid ts = linspace(0, T, GRID + 1) are its
    crossings and interior local minima of the gap, each zoomed into
    unless the Lipschitz bound certifies it; only the candidates cand
    (_candidates) can hold one, and gaps holds the gap at them and their
    neighbours.
    """
    for i in cand:
        if gaps[i] <= 0.0:
            return _zoom(X, V, ts[i - 1], ts[i], lipschitz)
        is_min = gaps[i] <= gaps[i - 1] and (i == GRID or gaps[i] <= gaps[i + 1])
        if is_min and not _stays_positive(gaps[i - 1 : i + 2], ts[1] - ts[0], lipschitz):
            t = _zoom(X, V, ts[i - 1], ts[min(i + 1, GRID)], lipschitz)
            if t is not None:
                return t
    return None


def max_full_rank_interval(X, V, t_max_search: float = 10.0):
    """Largest interval around 0 on which t -> exp(X, t V) keeps full rank.

    Scans (-t_max_search, t_max_search) with a dense grid of smallest
    singular values, evaluated coarsely first (both directions in one
    batched evaluation) and densely only where the gap's Lipschitz bound
    cannot certify that it stays positive (again one evaluation), then
    zooms into every candidate dip in stacked brackets of 33 times each
    (rank drops may touch zero without crossing the grid) until the first
    certified drop is resolved to 1e-7 in t. The bound holds because each
    row moves along its great circle at speed |v_i|, so V must be rowwise
    tangent at X (the ProductTangent rule); a raw V that is not raises
    InvalidInput, and t_max_search must be positive and pass _check_time.
    Returns (t_min, t_max), using -t_max_search or t_max_search when no
    drop is found on that side.
    """
    Xp = _rep(X)
    vec = _tangent_vec(Xp, V)
    if not (is_number(t_max_search, 0) and t_max_search > 0.0):
        raise InvalidInput(f"t_max_search must be positive and finite, got {t_max_search!r}")
    _check_time(t_max_search, vec, "t_max_search")
    k = Xp.shape[1]
    if numerical_rank(Xp) < k:
        raise InvalidInput("base point is rank deficient")
    lipschitz = (1.0 + RANK_RELATIVE) * np.linalg.norm(vec)
    ts = np.linspace(0.0, t_max_search, GRID + 1)
    # (-t) V is t (-V) bit for bit, so one stack holds both directions' times
    gaps = np.empty((2, GRID + 1))
    gaps[:, ::STEP] = _gaps(Xp, vec, np.concatenate([ts[::STEP], -ts[::STEP]])).reshape(2, -1)
    (cand_up, near_up), (cand_down, near_down) = (_candidates(g, ts, lipschitz) for g in gaps)
    if near_up.size or near_down.size:
        dense = _gaps(Xp, vec, np.concatenate([ts[near_up], -ts[near_down]]))
        gaps[0, near_up], gaps[1, near_down] = np.split(dense, [near_up.size])
    up = _first_drop(Xp, vec, ts, gaps[0], cand_up, lipschitz)
    down = _first_drop(Xp, -vec, ts, gaps[1], cand_down, lipschitz)
    t_max = t_max_search if up is None else up
    t_min = -t_max_search if down is None else -down
    return (float(t_min), float(t_max))


def k_embedding(X, k2: int) -> OrbitPoint:
    """Embed into a wider quotient by zero-padding columns to width k2, an integer >= k."""
    Xp = _rep(X)
    k = Xp.shape[1]
    if not is_number(k2, k, Integral):
        raise InvalidInput(f"target width must be an integer >= current width {k}, got {k2!r}")
    # zero columns leave every row's norm as it was
    return OrbitPoint._at(np.hstack([Xp, np.zeros((Xp.shape[0], k2 - k))]))
