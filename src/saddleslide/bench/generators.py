"""Synthetic instance generators and the direct KKT reference oracle.

Every generator records the exact saddle it planted, and every instance
can be saved to a manifest plus binary matrix files and reloaded with a
consistency check of the declared constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import numpy as np

from ..bilinear import BilinearProblem, CouplingOperator, lanczos_extremes
from ..errors import InfeasibleConstants, ManifestError, SingularSystem
from ..problems import CompositeSaddleProblem, PointPair, SmoothnessSpec
from . import matio

KIND_QUADRATIC = "quadratic-spp"
KIND_BILINEAR = "bilinear"
KIND_CONSENSUS = "consensus"
KIND_LINEAR_BILINEAR = "linear-bilinear"

# The load-time check's relative tolerance, its Lanczos steps per top, and
# the relative slack, 4 ulps per step, by which a Ritz top may round above.
SPECTRAL_CHECK_RTOL = 0.05
LANCZOS_ITERS = 100
RITZ_SLACK = 4 * LANCZOS_ITERS * np.finfo(float).eps

# File entries holding matrices; everything else is stored as a column
# vector and raveled on load.
_MATRIX_NAMES = frozenset({"P", "Q", "B", "W", "Hp", "Hq"})

# Per kind, the constants and arrays its oracles, checks and reference read.
_KIND_READS = {
    KIND_QUADRATIC: (("L_p", "mu_x", "L_q", "mu_y", "L_R"), ("P", "Q", "B", "a", "e")),
    KIND_BILINEAR: (("L_p", "mu_p", "L_q", "mu_q", "lambda_max_BBt"),
                    ("Hp", "Hq", "B", "d", "c")),
    KIND_CONSENSUS: (
        ("local_mu", "local_L", "lambda_max_BBt", "lambda_min_plus_BBt", "D_y"),
        ("W", "local_a", "local_b", "c"),
    ),
    KIND_LINEAR_BILINEAR: (("lambda_max_BBt", "lambda_min_BBt", "D_x", "D_y"),
                           ("B", "d", "c")),
}


@dataclass
class Instance:
    """A generated benchmark instance: manifest dictionary plus arrays."""

    manifest: dict
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    @property
    def instance_id(self) -> str:
        return self.manifest["instance_id"]

    @property
    def constants(self) -> dict:
        return self.manifest["constants"]

    def saddle(self) -> PointPair:
        return PointPair(self.arrays["x_star"].copy(), self.arrays["y_star"].copy())

    def coupling(self) -> CouplingOperator:
        B = self.arrays["B"] if "B" in self.arrays else self.arrays["W"]
        return CouplingOperator(
            matvec=lambda v, _B=B: _B @ v,
            rmatvec=lambda v, _B=B: _B.T @ v,
            d_x=B.shape[0],
            d_y=B.shape[1],
            lambda_max_BBt=self.constants["lambda_max_BBt"],
            lambda_min_BBt=self.constants.get("lambda_min_BBt", 0.0),
        )

    def spec(self) -> SmoothnessSpec:
        if self.kind != KIND_QUADRATIC:
            raise ManifestError(f"spec() applies to {KIND_QUADRATIC}, not {self.kind}")
        c = self.constants
        return SmoothnessSpec(
            L_p=c["L_p"], L_q=c["L_q"], L_R=c["L_R"], mu_x=c["mu_x"], mu_y=c["mu_y"]
        )

    def saddle_blocks(self):
        """Dense ``(Hp, Hq, B, d, c)`` of the saddle's stationarity system.

        ``Hp x + B y + d = 0`` and ``B'x - Hq y - c = 0`` at the saddle, for
        quadratic-spp (``Hp = P + mu_x I``, ``Hq = Q + mu_y I``), bilinear
        and linear-bilinear (zero Hessians) instances.
        """
        a = self.arrays
        if self.kind == KIND_QUADRATIC:
            c = self.constants
            return (_shifted(a["P"], c["mu_x"]), _shifted(a["Q"], c["mu_y"]),
                    a["B"], a["a"], a["e"])
        if self.kind == KIND_BILINEAR:
            return a["Hp"], a["Hq"], a["B"], a["d"], a["c"]
        if self.kind == KIND_LINEAR_BILINEAR:
            d_x, d_y = a["B"].shape
            return np.zeros((d_x, d_x)), np.zeros((d_y, d_y)), a["B"], a["d"], a["c"]
        raise ManifestError(f"saddle_blocks() does not apply to {self.kind}")

    def problem(self) -> CompositeSaddleProblem:
        """Composite oracle form (quadratic-spp instances)."""
        if self.kind != KIND_QUADRATIC:
            raise ManifestError(
                f"problem() applies to {KIND_QUADRATIC}, not {self.kind}"
            )
        P, Q, B = self.arrays["P"], self.arrays["Q"], self.arrays["B"]
        a, e = self.arrays["a"], self.arrays["e"]
        mu_x, mu_y = self.constants["mu_x"], self.constants["mu_y"]
        return CompositeSaddleProblem(
            d_x=P.shape[0],
            d_y=Q.shape[0],
            grad_p=lambda x: P @ x + a,
            grad_q=lambda y: Q @ y + e,
            grad_R=lambda x, y: (mu_x * x + B @ y, B.T @ x - mu_y * y),
            value_p=lambda x: 0.5 * float(x @ (P @ x)) + float(a @ x),
            value_q=lambda y: 0.5 * float(y @ (Q @ y)) + float(e @ y),
            value_R=lambda x, y: (
                0.5 * mu_x * float(x @ x)
                + float(x @ (B @ y))
                - 0.5 * mu_y * float(y @ y)
            ),
        )

    def bilinear_problem(self) -> BilinearProblem:
        """Bilinear oracle form; instances of other kinds raise ManifestError."""
        c = self.constants
        if self.kind == KIND_BILINEAR:
            Hp, Hq = self.arrays["Hp"], self.arrays["Hq"]
            d, cc = self.arrays["d"], self.arrays["c"]
            return BilinearProblem(
                grad_p=lambda x: Hp @ x + d,
                grad_q=lambda y: Hq @ y + cc,
                L_p=c["L_p"],
                mu_p=c["mu_p"],
                L_q=c["L_q"],
                mu_q=c["mu_q"],
                coupling=self.coupling(),
                value_p=lambda x: 0.5 * float(x @ (Hp @ x)) + float(d @ x),
                value_q=lambda y: 0.5 * float(y @ (Hq @ y)) + float(cc @ y),
            )
        raise ManifestError(f"bilinear_problem() does not apply to {self.kind}")

    def local_objective(self):
        """Separable objective oracles of a consensus instance."""
        if self.kind != KIND_CONSENSUS:
            raise ManifestError(f"local_objective() needs {KIND_CONSENSUS}")
        a_loc = self.arrays["local_a"]
        b_loc = self.arrays["local_b"]
        grad = lambda x: a_loc * (x - b_loc)
        value = lambda x: 0.5 * float(a_loc @ ((x - b_loc) ** 2))
        return grad, value

    def save(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in self.manifest["files"]:
            matio.write_matrix(out_dir / self.manifest["files"][name], self.arrays[name])
        manifest_path = out_dir / "manifest.json"
        matio.save_manifest(manifest_path, self.manifest)
        return manifest_path

    @classmethod
    def load(cls, manifest_path, verify: bool = True) -> "Instance":
        """Read a saved instance; its arrays come back read-only.

        A manifest of unknown kind, or one lacking a constant or a file its
        kind reads, raises ManifestError naming it.  Grid cells share one
        loaded instance across threads, so an in-place write raises
        ValueError instead of corrupting another cell.
        """
        manifest_path = Path(manifest_path)
        manifest = matio.load_manifest(manifest_path)
        kind = manifest["kind"]
        if kind not in _KIND_READS:
            raise ManifestError(f"{manifest_path}: unknown instance kind {kind!r}")
        for section, names in zip(("constants", "files"), _KIND_READS[kind]):
            for name in names:
                if name not in manifest[section]:
                    raise ManifestError(
                        f"{manifest_path}: {kind} manifest lacks {section} entry {name!r}"
                    )
        arrays = {}
        for name, rel in manifest["files"].items():
            arr = matio.read_matrix(manifest_path.parent / rel)
            if name not in _MATRIX_NAMES:
                arr = arr.ravel()
            arr.flags.writeable = False
            arrays[name] = arr
        inst = cls(manifest=manifest, arrays=arrays)
        if verify:
            verify_instance(inst)
        return inst


def verify_instance(inst: Instance) -> None:
    """Check declared spectral constants against the stored matrices.

    Where a bottom is checked, ``eigvalsh`` of the dense matrix gives it and
    the top exactly, to agree within 5%.  Other tops (quadratic-spp's,
    bilinear's ``lambda_max_BBt``) are the largest |Ritz value| after
    ``LANCZOS_ITERS`` steps, never above the norm: a declared one more than
    ``RITZ_SLACK`` below it is refuted, one above within 5% passes.  A
    declared 0 is checked on the scale 1e-12.  Raises ManifestError naming it.
    """
    c = inst.constants

    def check(name, declared, estimate, below=SPECTRAL_CHECK_RTOL):
        scale = max(abs(declared), 1e-12)
        if not -below * scale <= declared - estimate <= SPECTRAL_CHECK_RTOL * scale:
            raise ManifestError(
                f"{inst.instance_id}: declared {name}={declared:.6g} but "
                f"estimated {estimate:.6g}"
            )

    def check_norm(name, matvec, dim):
        # The largest |Ritz value| of a symmetric map: its top if semidefinite.
        lo, hi = lanczos_extremes(matvec, dim, LANCZOS_ITERS)[:2]
        check(name, c[name], max(-lo, hi), RITZ_SLACK)

    if inst.kind == KIND_QUADRATIC:
        P, Q, B = inst.arrays["P"], inst.arrays["Q"], inst.arrays["B"]
        check_norm("L_p", lambda v: P @ v, P.shape[0])
        check_norm("L_q", lambda v: Q @ v, Q.shape[0])
        mu_x, mu_y = c["mu_x"], c["mu_y"]
        d_x, d_y = P.shape[0], Q.shape[0]

        def coupled(z):
            x, y = z[:d_x], z[d_x:]
            return np.concatenate([mu_x * x + B @ y, B.T @ x - mu_y * y])

        check_norm("L_R", coupled, d_x + d_y)
    elif inst.kind == KIND_BILINEAR:
        B = inst.arrays["B"]
        eig_p = np.linalg.eigvalsh(inst.arrays["Hp"])
        eig_q = np.linalg.eigvalsh(inst.arrays["Hq"])
        check("L_p", c["L_p"], eig_p[-1])
        check("L_q", c["L_q"], eig_q[-1])
        check("mu_p", c["mu_p"], eig_p[0])
        check("mu_q", c["mu_q"], eig_q[0])
        check_norm("lambda_max_BBt", lambda v: B @ (B.T @ v), B.shape[0])
    elif inst.kind == KIND_CONSENSUS:
        W = inst.arrays["W"]
        eigs = np.linalg.eigvalsh(W @ W.T)
        check("lambda_max_BBt", c["lambda_max_BBt"], eigs[-1])
        # Generated graphs are connected: the kernel is the ones vector alone.
        check("lambda_min_plus_BBt", c["lambda_min_plus_BBt"], eigs[1])
    elif inst.kind == KIND_LINEAR_BILINEAR:
        eigs = np.linalg.eigvalsh(inst.arrays["B"] @ inst.arrays["B"].T)
        check("lambda_max_BBt", c["lambda_max_BBt"], eigs[-1])
        check("lambda_min_BBt", c["lambda_min_BBt"], eigs[0])
    else:
        raise ManifestError(f"unknown instance kind {inst.kind!r}")


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _shifted(m, mu):
    """``m + mu I``, shifting the diagonal of a copy.

    No identity-sized temporaries: at n = 1000 each is 8 MB, and the
    grid's worker threads keep the freed pages resident.
    """
    out = m.copy()
    out.flat[:: m.shape[0] + 1] += mu
    return out


def _random_sym_with_spectrum(rng, n, lo, hi):
    if n == 1:
        eigs = np.array([hi])
    else:
        eigs = np.sort(rng.uniform(lo, hi, size=n))
        eigs[0], eigs[-1] = lo, hi
    q = _random_orthogonal(rng, n)
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T), eigs


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _instance(kind, label, seed, d_x, d_y, constants, arrays, **extra) -> Instance:
    """An instance whose manifest stores each array ``name`` as ``name.bin``."""
    manifest = {
        "schema_version": matio.SCHEMA_VERSION,
        "kind": kind,
        "instance_id": f"{kind}-{label}-seed{seed}",
        "seed": seed,
        "dimensions": {"d_x": d_x, "d_y": d_y},
        "constants": constants,
        "files": {name: f"{name}.bin" for name in arrays},
        **extra,
    }
    return Instance(manifest=manifest, arrays=arrays)


def _scaled_gaussian_coupling(rng, d_x, d_y, sigma_max):
    if sigma_max <= 0.0:
        return np.zeros((d_x, d_y))
    g = rng.standard_normal((d_x, d_y))
    s = np.linalg.svd(g, compute_uv=False)
    return g * (sigma_max / s[0])


def gen_quadratic_spp(
    d_x: int,
    d_y: int,
    L_p: float,
    mu_x: float,
    L_q: float,
    mu_y: float,
    L_R: float,
    seed: int,
) -> Instance:
    """Quadratic SCSC instance with the declared constants and a planted saddle.

    ``p = x'Px/2 + a'x`` with spectrum(P) = [0, L_p], similarly q, and the
    coupling scale is chosen so the R-gradient map has norm exactly L_R.
    Linear shifts place the saddle at a recorded nonzero point.
    """
    if mu_x <= 0 or mu_y <= 0 or L_p < 0 or L_q < 0:
        raise InfeasibleConstants(
            f"need mu_x, mu_y > 0 and L_p, L_q >= 0, got "
            f"({L_p}, {mu_x}, {L_q}, {mu_y})"
        )
    half_gap = abs(mu_x - mu_y) / 2.0
    half_sum = (mu_x + mu_y) / 2.0
    # Norm of [[mu_x I, B], [B', -mu_y I]] is |gap|/2 + sqrt(sum^2/4 + s^2)
    # at the top singular value s of B; invert for s.
    inner = (L_R - half_gap) ** 2 - half_sum**2
    if L_R < max(mu_x, mu_y) or inner < -1e-12:
        raise InfeasibleConstants(f"L_R={L_R} below max(mu_x, mu_y)={max(mu_x, mu_y)}")
    sigma_max = math.sqrt(max(inner, 0.0))

    rng = np.random.default_rng(seed)
    P, _ = _random_sym_with_spectrum(rng, d_x, 0.0, L_p)
    Q, _ = _random_sym_with_spectrum(rng, d_y, 0.0, L_q)
    B = _scaled_gaussian_coupling(rng, d_x, d_y, sigma_max)

    x_star, y_star = _unit(rng, d_x), _unit(rng, d_y)
    a = -(P @ x_star + mu_x * x_star + B @ y_star)
    e = B.T @ x_star - mu_y * y_star - Q @ y_star

    return _instance(
        KIND_QUADRATIC, f"d{d_x}x{d_y}", seed, d_x, d_y,
        {"L_p": L_p, "mu_x": mu_x, "L_q": L_q, "mu_y": mu_y, "L_R": L_R},
        {"P": P, "Q": Q, "B": B, "a": a, "e": e, "x_star": x_star, "y_star": y_star},
    )


def gen_bilinear(
    d_x: int,
    d_y: int,
    L_p: float,
    mu_p: float,
    L_q: float,
    mu_q: float,
    sigma_max: float,
    seed: int,
) -> Instance:
    """Bilinear SCSC instance ``p(x) + x'By - q(y)`` with a planted saddle."""
    if not (0 < mu_p <= L_p and 0 < mu_q <= L_q) or sigma_max < 0:
        raise InfeasibleConstants(
            f"need 0 < mu <= L and sigma_max >= 0, got "
            f"({L_p}, {mu_p}, {L_q}, {mu_q}, {sigma_max})"
        )
    # A one-dimensional block has the one eigenvalue L, its modulus too.
    mu_p, mu_q = (L_p if d_x == 1 else mu_p), (L_q if d_y == 1 else mu_q)
    rng = np.random.default_rng(seed)
    Hp, _ = _random_sym_with_spectrum(rng, d_x, mu_p, L_p)
    Hq, _ = _random_sym_with_spectrum(rng, d_y, mu_q, L_q)
    B = _scaled_gaussian_coupling(rng, d_x, d_y, sigma_max)
    s = np.linalg.svd(B, compute_uv=False) if sigma_max > 0 else np.zeros(1)
    # Capped at the declared top, which rounding in the rescaled SVD can
    # overshoot when all singular values coincide (d_x = 1).
    lam_min = (
        min(float(s[-1] ** 2), sigma_max**2) if (d_x <= d_y and sigma_max > 0) else 0.0
    )

    x_star, y_star = _unit(rng, d_x), _unit(rng, d_y)
    d_vec = -(Hp @ x_star + B @ y_star)
    c_vec = B.T @ x_star - Hq @ y_star

    return _instance(
        KIND_BILINEAR, f"d{d_x}x{d_y}", seed, d_x, d_y,
        {"L_p": L_p, "mu_p": mu_p, "L_q": L_q, "mu_q": mu_q,
         "lambda_max_BBt": sigma_max**2, "lambda_min_BBt": lam_min},
        {"Hp": Hp, "Hq": Hq, "B": B, "d": d_vec, "c": c_vec,
         "x_star": x_star, "y_star": y_star},
    )


def graph_laplacian(topology: str, n_nodes: int) -> np.ndarray:
    """Laplacian of a path, ring, or star on ``n_nodes`` vertices."""
    if n_nodes < 2:
        raise InfeasibleConstants(f"need n_nodes >= 2, got {n_nodes}")
    adj = np.zeros((n_nodes, n_nodes))
    if topology == "path":
        for i in range(n_nodes - 1):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
    elif topology == "ring":
        for i in range(n_nodes):
            j = (i + 1) % n_nodes
            adj[i, j] = adj[j, i] = 1.0
    elif topology == "star":
        for i in range(1, n_nodes):
            adj[0, i] = adj[i, 0] = 1.0
    else:
        raise InfeasibleConstants(f"unknown topology {topology!r}")
    return np.diag(adj.sum(axis=1)) - adj


def gen_consensus(
    n_nodes: int,
    topology: str,
    local_mu: float,
    local_L: float,
    seed: int,
    spread: float = 0.1,
) -> Instance:
    """Consensus instance: separable quadratics coupled by a graph Laplacian.

    Encodes ``min F(x) s.t. W x = 0`` as an affine-constrained instance
    with coupling W.  ``spread`` scales how far the local minimizers
    disagree; it directly controls the dual norm (and hence D_y).
    """
    if not (0 < local_mu <= local_L):
        raise InfeasibleConstants(f"need 0 < local_mu <= local_L")
    rng = np.random.default_rng(seed)
    W = graph_laplacian(topology, n_nodes)
    a_loc = rng.uniform(local_mu, local_L, size=n_nodes)
    a_loc[0], a_loc[-1] = local_mu, local_L
    rng.shuffle(a_loc)
    b_loc = spread * rng.standard_normal(n_nodes)

    x_bar = float(a_loc @ b_loc) / float(a_loc.sum())
    x_star = np.full(n_nodes, x_bar)
    grad_at_star = a_loc * (x_star - b_loc)
    y_star = -np.linalg.pinv(W) @ grad_at_star

    eigs = np.linalg.eigvalsh(W)
    lam_max_w = float(eigs[-1])
    lam_min_plus_w = float(eigs[eigs > 1e-10 * max(lam_max_w, 1.0)][0])

    return _instance(
        KIND_CONSENSUS, f"{topology}{n_nodes}", seed, n_nodes, n_nodes,
        {
            "local_mu": float(a_loc.min()),
            "local_L": float(a_loc.max()),
            "lambda_max_BBt": lam_max_w**2,
            "lambda_min_plus_BBt": lam_min_plus_w**2,
            "D_y": 1.25 * float(np.linalg.norm(y_star)) + 1e-6,
        },
        {"W": W, "local_a": a_loc, "local_b": b_loc,
         "c": np.zeros(n_nodes), "x_star": x_star, "y_star": y_star},
        topology=topology,
        kernel="ones",
    )


def gen_linear_bilinear(
    d: int,
    seed: int,
    scale: float = 1.0,
    cond: float = 10.0,
) -> Instance:
    """Square full-rank linear-bilinear instance ``x'd + x'By - y'c``.

    The coupling's singular values span [scale/sqrt(cond), scale], so
    ``cond = 1`` gives a scaled orthogonal B.  ERM-style data matrices are
    drawn the same way with a spread spectrum.
    """
    if d < 1 or scale <= 0 or cond < 1:
        raise InfeasibleConstants(f"need d >= 1, scale > 0, cond >= 1")
    rng = np.random.default_rng(seed)
    u = _random_orthogonal(rng, d)
    v = _random_orthogonal(rng, d)
    sigmas = np.linspace(scale, scale / math.sqrt(cond), d)
    B = (u * sigmas) @ v.T

    x_star = rng.standard_normal(d)
    y_star = rng.standard_normal(d)
    d_vec = -B @ y_star
    c_vec = B.T @ x_star

    return _instance(
        KIND_LINEAR_BILINEAR, f"d{d}", seed, d, d,
        {
            "lambda_max_BBt": float(sigmas[0] ** 2),
            "lambda_min_BBt": float(sigmas[-1] ** 2),
            "D_x": 1.25 * float(np.linalg.norm(x_star)) + 1e-6,
            "D_y": 1.25 * float(np.linalg.norm(y_star)) + 1e-6,
        },
        {"B": B, "d": d_vec, "c": c_vec, "x_star": x_star, "y_star": y_star},
    )


def reference_solution(inst: Instance) -> PointPair:
    """Solve the instance's KKT system by dense factorization.

    This is the independent oracle every benchmark distance is measured
    against.  The residual must come out below 1e-10 (1 + ||rhs||).
    """
    if inst.kind == KIND_CONSENSUS:
        a_loc, b_loc, W = inst.arrays["local_a"], inst.arrays["local_b"], inst.arrays["W"]
        x_bar = float(a_loc @ b_loc) / float(a_loc.sum())
        x = np.full(W.shape[0], x_bar)
        y = -np.linalg.pinv(W) @ (a_loc * (x - b_loc))
        resid = np.linalg.norm(a_loc * (x - b_loc) + W @ y)
        if resid > 1e-8 * (1.0 + np.linalg.norm(a_loc * b_loc)):
            raise SingularSystem(f"consensus stationarity residual {resid:.3e}")
        return PointPair(x, y)

    Hp, Hq, B, d, c = inst.saddle_blocks()
    d_x = Hp.shape[0]
    mat = np.block([[Hp, B], [B.T, -Hq]])
    rhs = np.concatenate([-d, c])
    try:
        z = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    resid = np.linalg.norm(mat @ z - rhs)
    if not np.all(np.isfinite(z)) or resid > 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise SingularSystem(f"KKT residual {resid:.3e} too large")
    return PointPair(z[:d_x], z[d_x:])
