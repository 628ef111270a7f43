"""Simulated two-qubit tomography: projective settings, Poisson counts,
maximum-likelihood reconstruction, and Monte-Carlo error bars.

The projector catalog uses the standard photonic states
H=(1,0), V=(0,1), D=(H+V)/sqrt2, A=(H-V)/sqrt2, R=(H-iV)/sqrt2, L=(H+iV)/sqrt2.
"""

from __future__ import annotations

import csv
import functools
import itertools
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidState, NoConvergence, NotInformationallyComplete, OutOfRange,
                     QfcError, ShapeMismatch, UnknownLabel)
from .linalg import _describe, dagger, unit_norm
from .states import (_one_matrix, assert_density_matrix, born_probabilities, check_mean_pairs,
                     check_seed)

STATE_VECTORS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
    "R": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2),
    "L": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
}


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Projector states for qubit 1 and qubit 2, and their product ket;
    settings compare and hash by identity."""

    proj_a: np.ndarray
    proj_b: np.ndarray
    ket: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "proj_a", unit_norm(self.proj_a, (2,), "proj_a"))
        object.__setattr__(self, "proj_b", unit_norm(self.proj_b, (2,), "proj_b"))
        object.__setattr__(self, "ket", np.outer(self.proj_a, self.proj_b).reshape(4))

    @classmethod
    def from_names(cls, name_a: str, name_b: str) -> "MeasurementSetting":
        """Setting from two STATE_VECTORS names; UnknownLabel for any other value."""
        for name in (name_a, name_b):
            if not (isinstance(name, str) and name in STATE_VECTORS):
                raise UnknownLabel(f"unknown projector name {_describe(name)}; "
                                   f"use one of {sorted(STATE_VECTORS)}")
        return cls(STATE_VECTORS[name_a], STATE_VECTORS[name_b])


# Largest count of one record: float64 holds every integer up to 2**53, and
# numpy's Poisson sampler, which the Monte-Carlo resamples call with the
# counts as rates, stops near 9.2e18.  simulate_counts at the MAX_MEAN_PAIRS
# cap of 1e15 draws at most ~4.8e14 per setting.
MAX_COUNTS = 2 ** 53


@dataclass(frozen=True)
class CountRecord:
    setting: MeasurementSetting
    counts: int

    def __post_init__(self):
        value = self.counts
        if isinstance(value, bool) or not (  # a bool is an int to isinstance
                isinstance(value, (int, np.integer))
                or isinstance(value, (float, np.floating)) and float(value).is_integer()):
            raise InvalidState(f"counts must be a whole number, got {_describe(value)}")
        object.__setattr__(self, "counts", int(value))  # so that a CSV writes "5", not "5.0"
        if self.counts < 0:
            raise InvalidState(f"counts must be >= 0, got {_describe(self.counts)}")
        if self.counts > MAX_COUNTS:
            raise OutOfRange(f"counts must be at most 2**53, got {_describe(value)}")


@dataclass(frozen=True)
class MetricWithError:
    value: float
    std: float
    n_samples: int


def projector_set(kind: int) -> list:
    """16 settings (pairs from H,V,D,R) or the overcomplete 36 (H,V,D,A,R,L)."""
    real = isinstance(kind, numbers.Real)  # an array would compare entry by entry
    if real and kind == 16:
        names = ("H", "V", "D", "R")
    elif real and kind == 36:
        names = ("H", "V", "D", "A", "R", "L")
    else:
        raise ShapeMismatch(f"kind must be 16 or 36, got {_describe(kind)}")
    return [MeasurementSetting.from_names(a, b)
            for a, b in itertools.product(names, names)]


def simulate_counts(rho, settings, mean_pairs: float, seed: int) -> list:
    """Poisson coincidence counts for each setting, deterministic per seed."""
    rho = assert_density_matrix(_one_matrix(rho), dim=4)
    mean_pairs = check_mean_pairs(mean_pairs)
    seed = check_seed(seed)
    settings = list(settings)
    probs = born_probabilities(rho, np.array([s.ket for s in settings]).reshape(-1, 4))
    counts = np.random.default_rng(seed).poisson(mean_pairs * probs)
    return [CountRecord(setting=setting, counts=int(n))
            for setting, n in zip(settings, counts)]


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

# T = sum_j t_j E_j for 16 real parameters t: the 4 real diagonal entries,
# then (re, im) pairs for the off-diagonal positions below the diagonal
_LOWER = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
_BASIS = np.zeros((16, 4, 4), dtype=complex)
_BASIS[range(4), range(4), range(4)] = 1.0
for _i, (_r, _c) in enumerate(_LOWER):
    _BASIS[4 + 2 * _i, _r, _c] = 1.0
    _BASIS[5 + 2 * _i, _r, _c] = 1.0j
# Hermitian basis B_j = E_j + E_j^dag over the same 16 parameters
_HERM = _BASIS + dagger(_BASIS)
_ROWS, _COLS = zip(*_LOWER)

# Newton steps allowed and squared Newton decrement per count at which a fit
# stops; Armijo sufficient-decrease constant and step halvings tried
_MAX_ITER = 1000
_TOL = 1e-12
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# weight of I/4 mixed into the clipped linear-inversion start, which keeps
# the start full rank so that its Cholesky factor exists
_START_MIX = 1e-3
# most resamples of one monte_carlo_metric call: the config schema's mc_samples maximum
MAX_MC_SAMPLES = 1000


def _arrays(records) -> tuple:
    """The complex (K, 4) projector kets and the float (K,) counts of the records."""
    if not records:
        raise NotInformationallyComplete("empty record list")
    return (np.array([rec.setting.ket for rec in records]),
            np.array([rec.counts for rec in records], dtype=float))


# a tomography benchmark pass uses both of projector_set's sets
@functools.lru_cache(maxsize=2)
def _pinv(kets_bytes: bytes) -> np.ndarray:
    """The (K, 16) transpose of pinv(D), read-only, for the design matrix
    D_kj = <psi_k|B_j|psi_k> of one projector set; ``kets_bytes`` is
    ``kets.tobytes()`` of its complex (K, 4) ket array.

    Raises NotInformationallyComplete if D has rank < 16; ``lru_cache``
    keeps no exception, so such a set raises on every call.
    """
    kets = np.frombuffer(kets_bytes, dtype=complex).reshape(-1, 4)
    design = np.einsum("ki,jil,kl->kj", kets.conj(), _HERM, kets).real
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.sum(s > 1e-10))
    if rank < 16:
        raise NotInformationallyComplete(
            f"projector set spans only {rank}/16 operator dimensions")
    pinv_t = (u / s) @ vt
    pinv_t.flags.writeable = False
    return pinv_t


# a tomography or sweeps benchmark pass solves in 4-7 basis orders of its
# projector sets (seeds 3101-3130)
@functools.lru_cache(maxsize=7)
def _tensor(kets_bytes: bytes) -> np.ndarray:
    """The (K, 16, 16) tensor A with q_k = t^T A_k t, read-only, for the
    complex (K, 4) kets of ``kets_bytes`` in their basis order."""
    kets = np.frombuffer(kets_bytes, dtype=complex).reshape(-1, 4)
    m = np.einsum("jrc,kc->krj", _BASIS, kets)              # T psi_k = M_k t
    a = np.einsum("krj,krl->kjl", m.conj(), m).real         # (K, 16, 16)
    a.flags.writeable = False
    return a


def _linear_inversion(kets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The (B, 4, 4) least-squares linear-inversion estimates of a (B, K)
    count stack: X = sum_j x_j B_j with x = pinv(D) n.

    Raises NotInformationallyComplete if D has rank < 16.
    """
    return np.einsum("bj,jrc->brc", counts @ _pinv(kets.tobytes()), _HERM)


def _start(kets: np.ndarray, counts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Starting parameters t of ``_mle_stack`` for a (B, K) count stack,
    from its linear-inversion estimates ``x``, all in the basis order of
    ``kets``.

    X's negative eigenvalues are clipped, the rest renormalised and mixed
    with a weight ``_START_MIX`` of I/4, and that M is scaled so that
    sum_k q_k = N, as at the optimum; the clipped estimate is the physical
    projection of Smolin, Gambetta & Smith (PRL 108, 070502, 2012).
    T = (J chol(J M J) J)^dag is lower triangular with a positive real
    diagonal, and T^dag T = M.  From this start, over seeds 0-29 of the
    ``TestOptimality`` cases, a fit takes a median 3 to 6 Newton steps
    (at most 12), and at most 14 for psi+-, |HH> and |HD> at 2e6 pairs.

    Raises NoConvergence for a row without counts.
    """
    n_tot = counts.sum(axis=1)
    if np.any(n_tot <= 0):
        raise NoConvergence("all counts are zero; likelihood is flat")
    # I lies in the span of the B_j and <psi_k|I|psi_k> = 1 for every k, so
    # the all-ones vector lies in the column space of D and the
    # least-squares residual is orthogonal to it: the fitted counts
    # Tr(Pi_k X) sum to N > 0.  sum_k Pi_k is positive semidefinite, so X
    # has a positive eigenvalue and the clipped spectrum never sums to zero;
    # no fallback start is needed.
    lam, vec = np.linalg.eigh(x)
    lam = np.maximum(lam, 0.0)
    lam = (1 - _START_MIX) * lam / lam.sum(axis=1, keepdims=True) + _START_MIX / 4
    m = (vec * lam[:, None, :]) @ dagger(vec)
    rate = np.einsum("ki,bij,kj->b", kets.conj(), m, kets).real
    m *= (n_tot / rate)[:, None, None]
    # J A J reverses the rows and columns of A, and J L^dag J = (J L J)^dag
    chol = np.linalg.cholesky(m[:, ::-1, ::-1])
    tri = dagger(chol)[:, ::-1, ::-1]
    off = tri[:, _ROWS, _COLS]
    t = np.empty((len(counts), 16))
    t[:, :4] = np.diagonal(tri, axis1=1, axis2=2).real
    t[:, 4::2], t[:, 5::2] = off.real, off.imag
    return t


def _has_factor(hess: np.ndarray) -> np.ndarray:
    """Per matrix of a (B, 16, 16) Hessian stack, whether it has a Cholesky factor.

    The stack is factored at once; only where that raises is each matrix
    factored alone, so no matrix's answer depends on the matrices beside it.
    """
    factored = np.ones(len(hess), dtype=bool)
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        for b, h in enumerate(hess):
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                factored[b] = False
    return factored


def _basis_order(x: np.ndarray) -> np.ndarray:
    """The basis order of ``_mle_stack`` for a stack of linear-inversion
    estimates ``x``: the one in which the diagonal of their mean ascends."""
    return np.argsort(x.mean(axis=0).diagonal().real, kind="stable")


def _mle_stack(kets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Maximum-likelihood density matrices, unchecked, for a (B, K) stack of count rows.

    Row b holds the counts n_k of the K settings with projector kets
    ``kets``.  rho = T^dag T / Tr(T^dag T) with T lower triangular and a real
    diagonal (James, Kwiat, Munro & White, PRA 64, 052312, 2001), and the
    16 real parameters t of T minimize the Poisson deviance with a free rate,
    f(t) = sum_k q_k - n_k - n_k log(q_k / n_k), q_k = |T psi_k|^2 = t^T A_k t.
    Its minimum gives the same rho as the likelihood with the rate profiled
    out, and it sits where sum_k q_k = N.

    Which entries of T may be nonzero depends on the basis order.  In the
    kets' own order, the solver stalled or stopped short on optima whose
    support misses the last basis index (psi+-, |HH>, |HD>); so the stack
    is solved in the order in which the diagonal of its rows' mean
    linear-inversion estimate ascends (``_basis_order``), which puts the
    largest population last, and each rho is permuted back.  The stack
    shares that one order; a one-row stack gets its own.  The estimates are
    taken in the kets' own order and permuted, so an order needs no
    pseudo-inverse of its own.

    Each row takes saddle-free Newton steps, -|H|^-1 g with |H| the Hessian
    with its eigenvalues replaced by their absolute values, so that steps
    leave saddle points instead of converging to them.  Where H is positive
    definite, |H| = H and the step is the plain Newton step -H^-1 g
    (Nocedal & Wright, Numerical Optimization, sec. 3.4), taken from one
    LU solve of the rows whose H has a Cholesky factor (``_has_factor``).
    A row whose H has none (it is indefinite or numerically singular) is
    diagonalised instead, alone of its stack, with each |eigenvalue|
    floored at 1e-14 times the largest; so each row takes the route its
    own Hessian sets.  One backtracking loop over the whole stack sets each
    row's step length alpha: every row tries alpha = 1, and a row whose try
    fails the Armijo test halves its alpha, up to ``_MAX_HALVINGS`` tries
    in all.  A row stops once its squared Newton decrement g^T |H|^-1 g is
    at most ``_TOL`` * N and leaves the stack, so slow rows do not keep the
    others iterating.  A row still running after ``_MAX_ITER`` steps, or
    one whose line search finds no decrease, raises NoConvergence.  Each
    row starts from its projected linear-inversion estimate (``_start``).
    The results satisfy the optimality (KKT) conditions of the likelihood
    within 1e-5 per count (``TestOptimality``).
    """
    counts = np.asarray(counts, dtype=float)
    x = _linear_inversion(kets, counts)
    order = _basis_order(x)
    back = np.argsort(order)
    kets, x = kets[:, order], x[:, order][:, :, order]
    return _newton(kets, counts, _start(kets, counts, x))[:, back][:, :, back]


def _newton(kets: np.ndarray, counts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The Newton solve of ``_mle_stack`` from parameters ``t``, in the
    basis order of ``kets``.

    Each row's steps and result are those it gets alone from the same start.
    """
    n_set = counts.shape[1]
    a = _tensor(kets.tobytes())
    a_rows = a.reshape(n_set * 16, 16)
    a_flat = a.reshape(n_set, 256)

    def evaluate(t, n, ns):
        at = (t @ a_rows.T).reshape(len(t), n_set, 16)      # rows A_k t
        q = (at @ t[:, :, None])[:, :, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (q - n - n * np.log(q / ns)).sum(axis=1)
        return f, at, q

    # the rows still iterating: their indices into t, counts, counts with
    # zeros raised to 1 (n log(q/n) is 0 where n = 0), parameters and stop
    # thresholds; the stack shrinks only at a step where some row stops
    active, n, ta = np.arange(len(counts)), counts, t
    ns = np.maximum(counts, 1.0)
    stop = _TOL * counts.sum(axis=1)
    f, at, q = evaluate(ta, n, ns)
    for step_no in range(_MAX_ITER + 1):
        w = 1.0 - n / q
        grad = 2 * (w[:, None, :] @ at)[:, 0]
        hess = (2 * (w @ a_flat).reshape(-1, 16, 16)
                + 4 * (at * (n / q ** 2)[:, :, None]).swapaxes(1, 2) @ at)
        factored = _has_factor(hess)
        if factored.all():
            step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        else:
            step = np.empty_like(grad)
            step[factored] = -np.linalg.solve(hess[factored], grad[factored, :, None])[:, :, 0]
            lam, vec = np.linalg.eigh(hess[~factored])
            # |eigenvalues|, floored where a rank-deficient T leaves flat directions
            lam = np.abs(lam)
            lam = np.maximum(lam, 1e-14 * lam[:, -1:])
            g_eig = np.einsum("bij,bi->bj", vec, grad[~factored])
            step[~factored] = -np.einsum("bij,bj->bi", vec, g_eig / lam)
        decrement = -np.einsum("bi,bi->b", grad, step)      # g^T |H|^-1 g
        done = decrement <= stop
        if done.all():
            break
        if step_no == _MAX_ITER:
            raise NoConvergence(f"MLE did not converge in {_MAX_ITER} Newton steps")
        if done.any():
            t[active] = ta
            keep = ~done
            active, n, ns, ta, stop = active[keep], n[keep], ns[keep], ta[keep], stop[keep]
            f, at, q, step, decrement = f[keep], at[keep], q[keep], step[keep], decrement[keep]
        slope = -decrement
        # one step length per row; a row that has passed keeps its alpha
        alpha, passed = np.ones(len(active)), np.zeros(len(active), dtype=bool)
        for _ in range(_MAX_HALVINGS):
            t_try = ta + alpha[:, None] * step
            f_try, at_try, q_try = evaluate(t_try, n, ns)
            passed |= f_try <= f + _ARMIJO * alpha * slope
            if passed.all():
                break
            alpha[~passed] /= 2
        else:
            raise NoConvergence("MLE line search found no decrease")
        ta, f, at, q = t_try, f_try, at_try, q_try
    t[active] = ta
    mats = np.einsum("bj,jrc->brc", t, _BASIS)
    rhos = dagger(mats) @ mats
    rhos = (rhos + dagger(rhos)) / 2
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return rhos


def mle_reconstruct(records) -> np.ndarray:
    """Density matrix maximizing the Poisson likelihood of the records.

    The predicted mean for record k is s * <proj_k| rho |proj_k> with a free
    overall rate s, and rho = T^dag T / Tr(T^dag T) stays physical; see
    ``_mle_stack`` for the solver.  The estimate is checked here, as one 4x4
    matrix that ``assert_density_matrix`` remembers for the metrics that follow.
    """
    kets, counts = _arrays(records)
    return assert_density_matrix(_mle_stack(kets, counts[None])[0])


def monte_carlo_metric(records, metric, n_samples: int, seed: int) -> MetricWithError:
    """Mean and standard deviation of a state metric under Poisson resampling.

    Each sample redraws every record's counts as Poisson(observed counts)
    and re-runs the MLE.  Sample i uses its own generator
    ``default_rng([seed, i])``, so evaluation order does not matter (sample
    0 shares the stream of ``simulate_counts`` with ``seed``; see
    ``check_seed``); all samples are solved as one stack.  ``metric`` is
    called once, on that read-only (n_samples, 4, 4) stack, and returns the
    n_samples values (ShapeMismatch otherwise): ``concurrence``, ``purity``
    and ``chsh_max`` take stacks, and a function of one matrix is wrapped by
    its caller.  A second call with the same records, ``n_samples`` and
    ``seed`` (another metric, say) reuses that stack.
    ``n_samples`` is an integer, not a bool, from 2 (InvalidState otherwise) to
    ``MAX_MC_SAMPLES`` (OutOfRange above it, before any draw).
    """
    if isinstance(n_samples, bool) or not isinstance(n_samples, numbers.Integral):
        raise InvalidState(f"n_samples must be an integer, got {_describe(n_samples)}")
    if n_samples < 2:
        raise InvalidState(f"n_samples must be >= 2, got {n_samples}")
    if n_samples > MAX_MC_SAMPLES:
        raise OutOfRange(f"n_samples must be at most {MAX_MC_SAMPLES}, got {_describe(n_samples)}")
    seed = check_seed(seed)
    kets, observed = _arrays(records)
    rhos = _resampled_mle(kets.tobytes(), observed.tobytes(), operator.index(n_samples), seed)
    values = np.asarray(metric(rhos), dtype=float)
    if values.shape != (len(rhos),):
        raise ShapeMismatch(f"metric must return {len(rhos)} values for the "
                            f"{rhos.shape} stack, got shape {values.shape}")
    return MetricWithError(value=float(values.mean()),
                           std=float(values.std(ddof=1)),
                           n_samples=len(rhos))


@functools.lru_cache(maxsize=1)
def _resampled_mle(kets_bytes: bytes, observed_bytes: bytes, n_samples: int,
                   seed: int) -> np.ndarray:
    """The read-only (n_samples, 4, 4) MLE stack behind ``monte_carlo_metric``.

    ``kets_bytes`` and ``observed_bytes`` are ``tobytes()`` of the complex
    (K, 4) kets and the float (K,) observed counts.  The one cache entry
    serves the metrics evaluated on one resampling; a solve that raises is
    not cached and leaves the entry before it in place.
    """
    kets = np.frombuffer(kets_bytes, dtype=complex).reshape(-1, 4)
    observed = np.frombuffer(observed_bytes, dtype=float)
    resampled = np.array([np.random.default_rng([seed, i]).poisson(observed)
                          for i in range(n_samples)], dtype=float)
    rhos = assert_density_matrix(_mle_stack(kets, resampled))
    rhos.flags.writeable = False
    return rhos


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

def _vector_spec(v: np.ndarray) -> str:
    for name, ref in STATE_VECTORS.items():
        if np.max(np.abs(v - ref)) < 1e-12:
            return name
    return ";".join(f"{float(x.real):.17g}{float(x.imag):+.17g}j" for x in v)


def _parse_vector_spec(spec: str) -> np.ndarray:
    if spec in STATE_VECTORS:
        return STATE_VECTORS[spec]
    try:
        return np.array([complex(part) for part in spec.split(";")], dtype=complex)
    except ValueError:
        raise InvalidState(f"malformed vector spec {_describe(spec)}") from None


def _parse_counts(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        number = text.strip()
        digits = number[1:] if number.startswith(("+", "-")) else number
        if not digits.isdecimal():
            raise InvalidState(f"counts must be an integer, got {_describe(text)}") from None
        # a whole number past int()'s 4300 digits: far outside [0, MAX_COUNTS]
        if number.startswith("-"):
            raise InvalidState(f"counts must be >= 0, got {_describe(text)}") from None
        raise OutOfRange(f"counts must be at most 2**53, got {_describe(text)}") from None


_CSV_COLUMNS = ("proj_a_spec", "proj_b_spec", "counts", "integration_time_s")


def records_to_csv(records, path) -> None:
    """One row per record in the columns ``_CSV_COLUMNS``; integration_time_s is 1.0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rec in records:
            writer.writerow([_vector_spec(rec.setting.proj_a),
                             _vector_spec(rec.setting.proj_b), rec.counts, "1.0"])


def records_from_csv(path) -> list:
    """Records of a ``records_to_csv`` file; InvalidState for a missing column or a
    malformed row, and for a count time other than 1.0: the likelihood needs equal times.
    A row that ``MeasurementSetting`` or ``CountRecord`` rejects raises their error, such
    as NotNormalized for a projector that is not a unit 2-vector and OutOfRange for a
    count above MAX_COUNTS; each row error starts "line N:"."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads as empty cells
        for column in _CSV_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise InvalidState(f"counts CSV has no {column!r} column")
        for row in reader:
            if row["integration_time_s"] != "1.0":
                raise InvalidState(f"line {reader.line_num}: integration_time_s must be 1.0, "
                                   f"got {_describe(row['integration_time_s'])}")
            try:
                setting = MeasurementSetting(*(_parse_vector_spec(row[column])
                                               for column in _CSV_COLUMNS[:2]))
                records.append(CountRecord(setting=setting, counts=_parse_counts(row["counts"])))
            except QfcError as exc:  # keeps the error type
                raise type(exc)(f"line {reader.line_num}: {exc}") from None
    return records
