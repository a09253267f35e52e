"""Linear-Gaussian signal model: problem data, time grids, noise streams, paths.

The hidden state follows dX = A X dt + sigma_B dB and the observation record
accumulates dZ = H X dt + dW.  Everything downstream (Kalman-Bucy reference,
Riccati flows, particle systems) consumes the immutable objects defined here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "ModelParams",
    "TimeGrid",
    "NoiseBundle",
    "AssumptionReport",
    "AssumptionError",
    "simulate_truth",
    "simulate_observations",
    "validate_assumptions",
    "philox_keys",
    "symmetrize",
    "psd_sqrt",
    "STREAM_TRUTH",
    "STREAM_OBS",
    "STREAM_PARTICLE",
    "STREAM_COPIES",
]

# Stream roles for the seed tree.  A stream id is a tuple of non-negative
# integers; the first components are assigned by the harness (experiment,
# N, trial) and these role tags come next.
STREAM_TRUTH = 0
STREAM_OBS = 1
STREAM_PARTICLE = 2
STREAM_COPIES = 4

_PSD_TOL = 1e-10


class AssumptionError(RuntimeError):
    """A model assumption required by the requested operation does not hold."""


def _integer(name: str, v, least: int | None = None) -> int:
    """``v`` as an int; a bool, a non-integer number or a value below
    ``least`` is refused by name."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{name} must be at least {least}, got {v!r}")
    return int(v)


def _real(name: str, v) -> float:
    """``v`` as a float; a bool or a non-number is refused by name."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    return float(v)


def _sequence(name: str, v, entry) -> tuple:
    """``v``'s items through the checker ``entry``; a value that is not a
    list or tuple is refused by name."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {v!r}")
    return tuple(entry(f"{name} entry", x) for x in v)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2."""
    return 0.5 * (M + M.T)


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix, eigenvalues clamped at zero."""
    w, V = np.linalg.eigh(S)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _frozen_array(x, shape=None, name="array") -> np.ndarray:
    a = np.array(x, dtype=float)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Problem data (A, H, sigma_B, prior) for the linear-Gaussian filter.

    Shapes: A is d x d, H is m x d, sigma_B is d x d_B, m0 is a d-vector and
    Sigma0 is d x d symmetric PSD.  Sigma_B = sigma_B sigma_B^T is derived at
    construction, so the factorization identity holds by definition.  Whether
    the detectability / noise / stability assumptions hold is reported by
    :func:`validate_assumptions`, not enforced here: degenerate models
    (sigma_B = 0, Sigma0 = 0) are legitimate in edge-case runs.
    """

    A: np.ndarray
    H: np.ndarray
    sigma_B: np.ndarray
    m0: np.ndarray
    Sigma0: np.ndarray
    Sigma_B: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        d = A.shape[0]
        if A.shape != (d, d):
            raise ValueError(f"A must be square, got {A.shape}")
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if H.shape[1] != d:
            raise ValueError(f"H has {H.shape[1]} columns, expected {d}")
        sigma_B = np.atleast_2d(np.asarray(self.sigma_B, dtype=float))
        if sigma_B.shape[0] != d:
            raise ValueError(f"sigma_B has {sigma_B.shape[0]} rows, expected {d}")
        m0 = np.atleast_1d(np.asarray(self.m0, dtype=float))
        Sigma0 = np.atleast_2d(np.asarray(self.Sigma0, dtype=float))
        if np.linalg.norm(Sigma0 - Sigma0.T, np.inf) > _PSD_TOL * max(
            1.0, float(np.abs(Sigma0).max())
        ):
            raise ValueError("Sigma0 must be symmetric")
        Sigma0 = symmetrize(Sigma0)
        if np.linalg.eigvalsh(Sigma0).min() < -_PSD_TOL * max(
            1.0, float(np.abs(Sigma0).max())
        ):
            raise ValueError("Sigma0 must be positive semi-definite")
        object.__setattr__(self, "A", _frozen_array(A, (d, d), "A"))
        object.__setattr__(self, "H", _frozen_array(H, (H.shape[0], d), "H"))
        object.__setattr__(
            self, "sigma_B", _frozen_array(sigma_B, (d, sigma_B.shape[1]), "sigma_B")
        )
        object.__setattr__(self, "m0", _frozen_array(m0, (d,), "m0"))
        object.__setattr__(self, "Sigma0", _frozen_array(Sigma0, (d, d), "Sigma0"))
        object.__setattr__(
            self, "Sigma_B", _frozen_array(sigma_B @ sigma_B.T, (d, d), "Sigma_B")
        )

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def d_B(self) -> int:
        return self.sigma_B.shape[1]

    @property
    def is_scalar(self) -> bool:
        return self.d == 1 and self.m == 1 and self.d_B == 1

    @classmethod
    def scalar(cls, a: float, h: float, sigma_b: float, m0: float, sigma0: float) -> "ModelParams":
        """Convenience constructor for the d = m = 1 case."""
        return cls(
            A=[[float(a)]],
            H=[[float(h)]],
            sigma_B=[[float(sigma_b)]],
            m0=[float(m0)],
            Sigma0=[[float(sigma0)]],
        )

    @classmethod
    def from_config(cls, cfg: Mapping) -> "ModelParams":
        """Build from a configuration mapping.

        Expected keys: ``d``, ``m``, ``d_B`` (dimensions) and ``A``, ``H``,
        ``sigma_B``, ``m0``, ``Sigma0`` as flat row-major lists.  A missing
        key raises a KeyError; an unknown key or a malformed value raises a
        ValueError naming it.
        """
        d, m, d_B = (_integer(k, cfg[k], 1) for k in ("d", "m", "d_B"))
        shapes = {"A": (d, d), "H": (m, d), "sigma_B": (d, d_B), "m0": (d,), "Sigma0": (d, d)}
        unknown = sorted(set(cfg) - {"d", "m", "d_B", *shapes})
        if unknown:
            raise ValueError(f"unknown model key(s) {unknown}")

        def grab(key):
            flat, size = _sequence(key, cfg[key], _real), math.prod(shapes[key])
            if len(flat) != size:
                raise ValueError(f"config key {key!r} has {len(flat)} entries, expected {size}")
            return np.reshape(flat, shapes[key])

        return cls(**{key: grab(key) for key in shapes})

    def to_config(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "d_B": self.d_B,
            "A": self.A.ravel().tolist(),
            "H": self.H.ravel().tolist(),
            "sigma_B": self.sigma_B.ravel().tolist(),
            "m0": self.m0.tolist(),
            "Sigma0": self.Sigma0.ravel().tolist(),
        }


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t0, T] with step dt; n_steps = round(T / dt)."""

    T: float
    dt: float
    t0: float = 0.0
    n_steps: int = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("T", "dt", "t0"):
            _real(name, getattr(self, name))  # stored as given: the config hash sees it
        if not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.T > self.t0):
            raise ValueError("T must exceed t0")
        span = self.T - self.t0
        n = int(round(span / self.dt))
        if n < 1 or abs(n * self.dt - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(
                f"grid mismatch: {n} steps of dt={self.dt} do not reach T-t0={span}"
            )
        object.__setattr__(self, "n_steps", n)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Grid index of a node time; raises if t is not on the grid."""
        k = int(round((t - self.t0) / self.dt))
        if k < 0 or k > self.n_steps or abs(self.t0 + k * self.dt - t) > 1e-9:
            raise ValueError(f"t={t} is not a node of this grid")
        return k

    def refined(self) -> "TimeGrid":
        """The grid with half the step size (same span)."""
        return TimeGrid(T=self.T, dt=self.dt / 2.0, t0=self.t0)


# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list:
    """SeedSequence's coercion of a non-negative int: uint32 words, least
    significant first, at least one."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _philox_key_words(entropy: list, size: int) -> list:
    """Key words of ``SeedSequence`` for ``size`` entropy records at once.

    ``entropy`` holds the assembled entropy words in order, each an int
    shared by every record or a uint32 array of length ``size``.  Returns
    the four uint32 arrays of ``generate_state(4, uint32)``.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return r ^ (r >> np.uint32(16))

    words = [np.broadcast_to(np.asarray(w, dtype=np.uint32), (size,)) for w in entropy]
    zero = np.zeros(size, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    out = []
    hash_const = _INIT_B
    for value in pool:
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> np.uint32(16)))
    return out


def philox_keys(seed: int, spawn_key) -> np.ndarray:
    """Philox keys of many seed-sequence spawn keys at once.

    ``spawn_key`` is a sequence of components, each a non-negative int or
    an array of non-negative integers below 2**64; the arrays broadcast to
    a shape S.  Entry [j] of the result, shape S + (2,) and dtype uint64,
    equals ``SeedSequence(seed, spawn_key=key_j).generate_state(2,
    np.uint64)``, the key ``Philox(seed=SeedSequence(...))`` runs with,
    where key_j takes entry j of every array component.
    """
    parts = []
    for c in spawn_key:
        if isinstance(c, np.ndarray):
            if c.dtype.kind not in "iu":
                raise ValueError(f"stream id arrays must hold integers, got {c.dtype}")
            if c.size and c.min() < 0:
                raise ValueError("stream id components must be non-negative")
            parts.append(c.astype(np.uint64))
        else:
            c = int(c)
            if c < 0:
                raise ValueError("stream id components must be non-negative")
            parts.append(c)
    arrays = [p for p in parts if isinstance(p, np.ndarray)]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)
    cols = [np.broadcast_to(a, shape).ravel() for a in arrays]
    # a component takes two words from 2**32 on, so records group by which
    # of their array components are that wide
    wide = np.zeros(size, dtype=np.int64)
    for j, c in enumerate(cols):
        wide |= (c > _MASK32).astype(np.int64) << j
    run = _uint32_words(int(seed))
    keys = np.empty((size, 2), dtype=np.uint64)
    for pattern in np.unique(wide):
        rows = np.flatnonzero(wide == pattern)
        spawn = []
        j = 0
        for p in parts:
            if isinstance(p, np.ndarray):
                col = cols[j][rows]
                spawn.append((col & np.uint64(_MASK32)).astype(np.uint32))
                if (pattern >> j) & 1:
                    spawn.append((col >> np.uint64(32)).astype(np.uint32))
                j += 1
            else:
                spawn.extend(_uint32_words(p))
        entropy = run
        if spawn and len(run) < _POOL_SIZE:
            entropy = run + [0] * (_POOL_SIZE - len(run))
        w = [x.astype(np.uint64) for x in _philox_key_words(entropy + spawn, len(rows))]
        keys[rows, 0] = w[0] | (w[1] << np.uint64(32))
        keys[rows, 1] = w[2] | (w[3] << np.uint64(32))
    return keys.reshape(shape + (2,))


# Bytes of the stream-major buffer that time-major draws are staged in.
_STAGE_BYTES = 262_144


def _philox_normals(gen: np.random.Generator, keys: list, rows: np.ndarray) -> None:
    """Fill row s of ``rows`` with the first standard normals of the Philox
    stream keyed by ``keys[s]`` (a pair of ints), at counter 0.

    ``gen``, a generator over a Philox bit generator, is re-keyed per stream
    through a state of plain ints, which numpy sets faster than the arrays
    its ``state`` getter returns."""
    bitgen = gen.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    inner = state["state"]
    for key, row in zip(keys, rows):
        inner["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)


def _as_stream(stream_id) -> tuple:
    if isinstance(stream_id, (int, np.integer)):
        stream = (int(stream_id),)
    else:
        stream = tuple(int(s) for s in stream_id)
    if any(s < 0 for s in stream):
        raise ValueError("stream id components must be non-negative")
    return stream


@dataclass(frozen=True)
class NoiseBundle:
    """A named, reproducible random stream.

    Streams are realized with the counter-based Philox generator keyed by
    ``SeedSequence(entropy=seed, spawn_key=stream_id)``, so equal
    (seed, stream_id) pairs replay bit-identical draws and distinct stream
    ids are independent by construction of the seed-sequence spawn tree.
    """

    seed: int
    stream_id: tuple = ()

    def __post_init__(self):
        seed = int(self.seed)
        if seed < 0:
            raise ValueError("seed must be non-negative")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream_id", _as_stream(self.stream_id))

    def child(self, *ids: int) -> "NoiseBundle":
        return NoiseBundle(self.seed, self.stream_id + _as_stream(ids))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream_id)
        return np.random.Generator(np.random.Philox(seed=ss))

    def normals(self, shape) -> np.ndarray:
        return self.generator().standard_normal(shape)

    def child_normals(self, *ids, shape) -> np.ndarray:
        """Draws of many child streams at once, time first: shape
        (shape[0],) + S + shape[1:], contiguous.

        Each of ``ids`` is an int or an integer array; the arrays broadcast
        to S.  Entry [k, j] equals ``self.child(*ids_j).normals(shape)[k]``
        bit for bit, where ids_j takes entry j of every array; each time
        slice is one contiguous block.  The keys come from
        :func:`philox_keys` and one Philox generator is re-keyed per stream,
        so no per-stream seed sequence or generator is built.  Streams are
        drawn a few at a time into a small stream-major buffer and copied
        transposed.
        """
        shape = (int(shape),) if np.ndim(shape) == 0 else tuple(int(n) for n in shape)
        keys = philox_keys(self.seed, self.stream_id + ids)
        S = keys.shape[:-1]
        keys = keys.reshape(-1, 2).tolist()
        size = math.prod(shape)
        gen = np.random.Generator(np.random.Philox(0))
        n, rest = shape[0], math.prod(shape[1:])
        out = np.empty((n,) + S + shape[1:])
        by_time = out.reshape(n, len(keys), rest)
        chunk = max(1, _STAGE_BYTES // max(8 * size, 1))
        stage = np.empty((min(chunk, len(keys)), size))
        for lo in range(0, len(keys), chunk):
            part = keys[lo:lo + chunk]
            rows = stage[:len(part)]
            _philox_normals(gen, part, rows)
            by_time[:, lo:lo + len(part)] = rows.reshape(len(part), n, rest).swapaxes(0, 1)
        return out

    def brownian(self, n_steps: int, dim: int, dt: float) -> np.ndarray:
        """Pre-generated Wiener increments, shape (n_steps, dim), each N(0, dt I)."""
        return self.generator().standard_normal((n_steps, dim)) * np.sqrt(dt)


def simulate_truth(
    params: ModelParams,
    grid: TimeGrid,
    noise: NoiseBundle,
    dB: np.ndarray | None = None,
) -> np.ndarray:
    """Euler-Maruyama path of the hidden state, shape (n_steps + 1, d).

    X_0 ~ N(m0, Sigma0) is drawn first from the stream, then the Brownian
    increments, so paths at two resolutions sharing a stream also share X_0.
    ``dB`` overrides the stream increments (test hook for coupled-refinement
    runs); it must have shape (n_steps, d_B).
    """
    rng = noise.generator()
    z = rng.standard_normal(params.d)
    x0 = params.m0 + psd_sqrt(params.Sigma0) @ z
    n = grid.n_steps
    if dB is None:
        dB = rng.standard_normal((n, params.d_B)) * np.sqrt(grid.dt)
    else:
        dB = np.asarray(dB, dtype=float)
        if dB.shape != (n, params.d_B):
            raise ValueError(f"dB has shape {dB.shape}, expected {(n, params.d_B)}")
    path = np.empty((n + 1, params.d))
    path[0] = x0
    dt = grid.dt
    if params.is_scalar:
        a = float(params.A[0, 0])
        s = float(params.sigma_B[0, 0])
        x = float(x0[0])
        db = dB[:, 0].tolist()
        out = path[:, 0]
        for k in range(n):
            x = x + a * x * dt + s * db[k]
            out[k + 1] = x
    else:
        A = params.A
        sB = params.sigma_B
        x = x0
        for k in range(n):
            x = x + (A @ x) * dt + sB @ dB[k]
            path[k + 1] = x
    path.setflags(write=False)
    return path


def simulate_observations(
    params: ModelParams,
    grid: TimeGrid,
    truth: np.ndarray,
    noise: NoiseBundle,
    dW: np.ndarray | None = None,
) -> np.ndarray:
    """Observation increments dZ_k = H X_{t_k} dt + dW_k on the truth's grid,
    a read-only array of shape (n_steps, m).

    ``dW`` overrides the stream increments (test hook); shape (n_steps, m).
    """
    truth = np.asarray(truth, dtype=float)
    n = grid.n_steps
    if truth.shape != (n + 1, params.d):
        raise ValueError(
            f"truth has shape {truth.shape}, expected {(n + 1, params.d)}"
        )
    if dW is None:
        dW = noise.brownian(n, params.m, grid.dt)
    else:
        dW = np.asarray(dW, dtype=float)
        if dW.shape != (n, params.m):
            raise ValueError(f"dW has shape {dW.shape}, expected {(n, params.m)}")
    dZ = truth[:-1] @ params.H.T * grid.dt + dW
    dZ.setflags(write=False)
    return dZ


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the detectability / noise / stability checks.

    a1: (A, H) detectable and (A, sigma_B) stabilizable (Hautus rank tests).
    a2: Sigma_B positive definite.
    a3: A asymptotically stable, i.e. mu_A = min(-Re eig(A)) > 0.
    """

    a1: bool
    a2: bool
    a3: bool
    detectable: bool
    stabilizable: bool
    mu_A: float
    sigma_B_min_eig: float


# Real parts above -_RE_TOL count as marginal in the Hautus tests, and mu_A
# must exceed it for A3.
_RE_TOL = 1e-10


def validate_assumptions(params: ModelParams) -> AssumptionReport:
    """Check the model assumptions; reports flags, never raises.

    The Hautus tests evaluate rank [lambda I - A; H] (detectability) and
    rank [lambda I - A, sigma_B] (stabilizability) at every eigenvalue of A
    with real part >= -_RE_TOL.  Ranks use the SVD threshold
    max(dim) * eps * sigma_max (numpy's matrix_rank default).
    """
    d = params.d
    eigs = np.linalg.eigvals(params.A)
    I = np.eye(d)
    detectable = True
    stabilizable = True
    for lam in eigs:
        if lam.real < -_RE_TOL:
            continue
        M_det = np.vstack([lam * I - params.A, params.H.astype(complex)])
        if np.linalg.matrix_rank(M_det) < d:
            detectable = False
        M_stab = np.hstack([lam * I - params.A, params.sigma_B.astype(complex)])
        if np.linalg.matrix_rank(M_stab) < d:
            stabilizable = False
    sig_eigs = np.linalg.eigvalsh(params.Sigma_B)
    min_eig = float(sig_eigs.min())
    a2 = min_eig > 1e-10 * max(1.0, float(sig_eigs.max()))
    mu_A = float(np.min(-eigs.real))
    a3 = mu_A > _RE_TOL
    return AssumptionReport(
        a1=detectable and stabilizable,
        a2=a2,
        a3=a3,
        detectable=detectable,
        stabilizable=stabilizable,
        mu_A=mu_A,
        sigma_B_min_eig=min_eig,
    )
