"""Reference computations made apart from the program.

Nothing here imports ``eventstates``: record states, entropies, Helstrom and
square-root-measurement values, correlators, Bloch-grid scans and decay
statistics are rebuilt from the generated inputs with plain numpy, using the
textbook formulas rather than the package's code paths.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ------------------------------------------------------------ scenario parts


def axis_kets(theta: float, phi: float = 0.0) -> np.ndarray:
    """Rows: the qubit ket at Bloch angles (theta, phi) and its antipode."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([[c, e * s], [-e.conjugate() * s, c]], dtype=complex)


def matrix(spec: dict) -> np.ndarray:
    return np.asarray(spec["re"], dtype=float) + 1j * np.asarray(spec["im"], dtype=float)


def basis(spec) -> tuple[np.ndarray, np.ndarray]:
    """(kets as rows, labels) of an axis or explicit scenario-file basis."""
    if "theta" in spec:
        kets, labels = axis_kets(spec["theta"], spec.get("phi", 0.0)), spec.get("labels", [1.0, -1.0])
    else:
        kets, labels = matrix(spec), spec["labels"]
    return kets, np.asarray(labels, dtype=float)


def unitary(spec: dict) -> np.ndarray:
    if "axis" in spec:
        a = spec["angle"]
        return math.cos(a / 2) * np.eye(2) - 1j * math.sin(a / 2) * PAULI[spec["axis"]]
    return matrix(spec)


def initial_density(spec: dict) -> np.ndarray:
    if "ket" in spec:
        vec = matrix(spec["ket"])
        return np.outer(vec, vec.conj())
    return matrix(spec["density"])


# ------------------------------------------------------------ record states


def sl_instant(rho: np.ndarray, ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Independent pair, sharp readout: diag of the joint Born probabilities."""
    joint = np.kron(ka, kb)
    probs = np.real(np.einsum("mi,ij,mj->m", joint.conj(), rho, joint))
    return np.diag(probs).astype(complex)


def tl_instant(rho: np.ndarray, ka: np.ndarray, kb: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Ordered pair: block b holds hop_b rho_A hop_b^dagger, with rho_A = <a|rho|a'>."""
    d = ka.shape[0]
    rho_a = ka.conj() @ rho @ ka.T
    hop = kb.conj() @ u @ ka.T  # hop[b, a] = <b|U|a>
    out = np.zeros((d, d, d, d), dtype=complex)
    for b in range(d):
        out[:, b, :, b] = np.outer(hop[b], hop[b].conj()) * rho_a
    return out.reshape(d * d, d * d)


def scenario_state(data: dict) -> np.ndarray:
    """Sharp record state of a scenario file without timing."""
    ka, _ = basis(data["basisA"])
    kb, _ = basis(data["basisB"])
    rho = initial_density(data["initial"])
    if data["kind"] == "SL":
        return sl_instant(rho, ka, kb)
    return tl_instant(rho, ka, kb, unitary(data["evolution"]))


def evolution(ham: np.ndarray, tau: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(ham)
    return (vecs * np.exp(-1j * vals * tau)) @ vecs.conj().T


def tl_fuzzy_small(rho0, ka, kb, ham, weights: np.ndarray, dt: float) -> np.ndarray:
    """Ordered pair averaged over firing bins (k, l >= k) term by term."""
    d = ka.shape[0]
    n = weights.shape[0]
    out = np.zeros((d, d, d, d), dtype=complex)
    for k in range(n):
        u_k = evolution(ham, k * dt)
        rho_a = ka.conj() @ (u_k @ rho0 @ u_k.conj().T) @ ka.T
        for l in range(k, n):
            if weights[k, l] == 0.0:
                continue
            hop = kb.conj() @ evolution(ham, (l - k) * dt) @ ka.T
            for b in range(d):
                out[:, b, :, b] += weights[k, l] * np.outer(hop[b], hop[b].conj()) * rho_a
    return out.reshape(d * d, d * d)


def sl_fuzzy_probs(psi, ka, kb, ham_a, ham_b, wa, wb, dt) -> np.ndarray:
    """Independent pair, each factor evolving until its own firing bin."""
    taus = dt * np.arange(wa.shape[0])
    psi2 = psi.reshape(2, 2)
    va, ea = np.linalg.eigh(ham_a)
    vb, eb = np.linalg.eigh(ham_b)
    # amp_a[k, a, j] = sum_i <a|U_A(tau_k)|i> psi[i, j]
    ua = np.einsum("ij,kj,lj->kil", ea, np.exp(-1j * np.outer(taus, va)), ea.conj())
    ub = np.einsum("ij,kj,lj->kil", eb, np.exp(-1j * np.outer(taus, vb)), eb.conj())
    amp_a = np.einsum("ai,kij,jm->kam", ka.conj(), ua, psi2)
    proj_b = np.einsum("bj,kjm->kbm", kb.conj(), ub)
    f = np.einsum("k,kam,kaM->amM", wa, amp_a, amp_a.conj())
    g = np.einsum("k,kbm,kbM->bmM", wb, proj_b, proj_b.conj())
    return np.real(np.einsum("amM,bmM->ab", f, g))


# --------------------------------------------------------------- entropies


def entropy_bits(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def vn_entropy(rho: np.ndarray) -> float:
    return entropy_bits(np.clip(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)), 0.0, None))


def coherence(rho: np.ndarray) -> float:
    """Relative entropy of coherence in the computational (record) basis."""
    return entropy_bits(np.clip(np.real(np.diag(rho)), 0.0, None)) - vn_entropy(rho)


def conditionals(rho: np.ndarray, da: int, db: int):
    """(p_b, sigma_b) of the first record given each second outcome."""
    four = rho.reshape(da, db, da, db)
    out = []
    for b in range(db):
        block = four[:, b, :, b]
        p = float(np.real(np.trace(block)))
        out.append((p, block / p if p > 1e-12 else None))
    return out


def helstrom(p0, s0, p1, s1) -> float:
    gap = p0 * s0 - p1 * s1
    return 0.5 * (1.0 + float(np.abs(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))).sum()))


def discrimination(rho: np.ndarray, da: int, db: int) -> float:
    """Helstrom value for two live outcomes, square-root measurement otherwise."""
    live = [(p, s) for p, s in conditionals(rho, da, db) if s is not None]
    if len(live) == 1:
        return 1.0
    if len(live) == 2:
        (p0, s0), (p1, s1) = live
        return helstrom(p0 / (p0 + p1), s0, p1 / (p0 + p1), s1)
    mean = sum(p * s for p, s in live)
    vals, vecs = np.linalg.eigh(0.5 * (mean + mean.conj().T))
    inv_root = (vecs * np.where(vals > 1e-14, 1 / np.sqrt(np.clip(vals, 1e-300, None)), 0.0)) @ vecs.conj().T
    return float(sum(np.real(np.trace(inv_root @ (p * s) @ inv_root @ (p * s))) for p, s in live))


def max_overlap(rho: np.ndarray, da: int, db: int) -> float:
    sig = [s for _, s in conditionals(rho, da, db)]
    worst = 0.0
    for i in range(db):
        for j in range(i + 1, db):
            if sig[i] is not None and sig[j] is not None:
                worst = max(worst, float(np.real(np.trace(sig[i] @ sig[j]))))
    return worst


def reduced_b(rho: np.ndarray, da: int, db: int) -> np.ndarray:
    return np.einsum("ajak->jk", rho.reshape(da, db, da, db))


# -------------------------------------------------------------- correlators


def xz_observable(theta: float) -> np.ndarray:
    return math.sin(theta) * PAULI["x"] + math.cos(theta) * PAULI["z"]


def chsh_correlators(psi: np.ndarray, angles_a_deg, angles_b_deg) -> np.ndarray:
    """<psi| A(a) (x) B(b) |psi> in the order (a,b), (a,b'), (a',b), (a',b')."""
    out = []
    for a in angles_a_deg:
        for b in angles_b_deg:
            op = np.kron(xz_observable(math.radians(a)), xz_observable(math.radians(b)))
            out.append(float(np.real(psi.conj() @ op @ psi)))
    return np.array(out)


def chsh_value(corr: np.ndarray) -> float:
    return float(abs(corr[0] + corr[1] + corr[2] - corr[3]))


# ------------------------------------------------------- Bloch-grid scans


def _eig2_plogp(blocks: np.ndarray) -> np.ndarray:
    """Sum of lambda log2 lambda over the eigenvalues of a stack of 2x2 Hermitian blocks."""
    a = np.real(blocks[..., 0, 0])
    d = np.real(blocks[..., 1, 1])
    off = np.abs(blocks[..., 0, 1])
    mid, rad = 0.5 * (a + d), np.sqrt(0.25 * (a - d) ** 2 + off**2)
    total = np.zeros_like(mid)
    for lam in (mid + rad, mid - rad):
        lam = np.clip(lam, 0.0, None)
        total += np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return total


def _entropy_drops(rho4: np.ndarray, entropy_b: float, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """S(rho_B) minus the mean conditional entropy, per first-record basis (theta, phi)."""
    c, s, e = np.cos(th / 2), np.sin(th / 2), np.exp(1j * ph)
    kets = np.stack([np.stack([c, e * s], -1), np.stack([-e.conj() * s, c], -1)], 1)  # [n, o, a]
    blocks = np.einsum("noa,abAB,noA->nobB", kets.conj(), rho4, kets)
    probs = np.clip(np.real(np.einsum("nobb->no", blocks)), 0.0, None)
    plogp = np.where(probs > 0, probs * np.log2(np.where(probs > 0, probs, 1.0)), 0.0).sum(1)
    return entropy_b - (plogp - _eig2_plogp(blocks).sum(1))


def scan_classical_correlation(rho: np.ndarray, n_theta: int = 45, n_phi: int = 90, levels: int = 6) -> float:
    """Largest entropy drop on a qubit second record over first-record bases.

    A theta-phi grid over the sphere, then ``levels`` local 11 x 11 grids,
    each centred on the best point so far and a fifth as wide as the last.
    """
    rho4 = rho.reshape(2, 2, 2, 2)
    entropy_b = vn_entropy(reduced_b(rho, 2, 2))
    th, ph = np.meshgrid(np.linspace(0.0, math.pi, n_theta), np.linspace(0.0, 2 * math.pi, n_phi), indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    span_t, span_p = math.pi / (n_theta - 1), 2 * math.pi / n_phi
    best = -math.inf
    for _ in range(levels + 1):
        values = _entropy_drops(rho4, entropy_b, th, ph)
        k = int(np.argmax(values))
        best, t0, p0 = max(best, float(values[k])), th[k], ph[k]
        local = np.linspace(-1.0, 1.0, 11)
        th, ph = np.meshgrid(t0 + span_t * local, p0 + span_p * local, indexing="ij")
        th, ph = th.ravel(), ph.ravel()
        span_t, span_p = span_t / 5, span_p / 5
    return best


def branch_overlap(kets_a: np.ndarray, psi: np.ndarray, u: np.ndarray, kb: np.ndarray) -> float:
    """Tr(sigma_0 sigma_1) of the two pure conditionals of a qubit ordered pair."""
    branch = (kb.conj() @ u @ kets_a.T) * (kets_a.conj() @ psi)[None, :]  # [b, a]
    p = np.sum(np.abs(branch) ** 2, axis=1)
    if p.min() < 1e-12:
        return 0.0
    return float(abs(np.vdot(branch[0], branch[1])) ** 2 / (p[0] * p[1]))


def perpendicular_basis(psi: np.ndarray) -> np.ndarray:
    """A first basis whose Bloch axis is perpendicular to psi's Bloch vector."""
    r = np.real([psi.conj() @ PAULI[k] @ psi for k in "xyz"])
    n = np.cross(r, [1.0, 0.0, 0.0] if abs(r[0]) < 0.9 else [0.0, 1.0, 0.0])
    n /= np.linalg.norm(n)
    return axis_kets(math.acos(max(-1.0, min(1.0, n[2]))), math.atan2(n[1], n[0]))


# ------------------------------------------------------- decay statistics


def exponential_weights(gamma: float, dt: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin masses of a marginal decay and of its restarted conditional rows.

    The marginal is q^k renormalized over the grid, row k of the conditional
    is q^(l-k) for l >= k renormalized over the rest of the grid, with
    q = exp(-gamma dt).
    """
    q = math.exp(-gamma * dt)
    k = np.arange(n)
    pa = q**k / ((1 - q**n) / (1 - q))
    lag = k[None, :] - k[:, None]
    rows = np.where(lag >= 0, q ** np.clip(lag, 0, None), 0.0)
    return pa, rows / ((1 - q ** (n - k)) / (1 - q))[:, None]


def exponential_covariance(gamma: float, dt: float, n: int) -> float:
    """Cov(T_a, T_b) of the restarted decay chain on an n-bin grid, in O(n).

    Row k's lag is geometric on {0, ..., m} with m = n - 1 - k; its mean is
    sum g q^g / sum q^g in closed form.
    """
    q = math.exp(-gamma * dt)
    k = np.arange(n, dtype=float)
    pa = q**k * (1 - q) / (1 - q**n)
    m = n - 1 - k
    s0 = (1 - q ** (m + 1)) / (1 - q)
    s1 = q * (1 - (m + 1) * q**m + m * q ** (m + 1)) / (1 - q) ** 2
    t_a = k * dt
    t_b = t_a + dt * s1 / s0
    return float(pa @ (t_a * t_b) - (pa @ t_a) * (pa @ t_b))


def decay_grid_error(gamma: float, dt: float, tail: float) -> float:
    """How far the discrete decay covariance may sit from 1/gamma^2, relatively.

    Two effects lower it: binning, (1/gamma^2)(1 - x^2/12 + O(x^4)) with
    x = gamma dt, and the grid end, which truncates the restarted decay of
    late triggers by about tail * ln(1/tail)^3 / 6 when the grid keeps all
    but ``tail`` of the first decay.  The bound is twice their sum.
    """
    x = gamma * dt
    return x * x / 6 + tail * math.log(1.0 / tail) ** 3 / 3


# ---------------------------------------------------------------- checks


def density_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(|trace - 1|, Hermiticity defect, most negative eigenvalue)."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = float(abs(np.trace(rho) - 1.0))
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    return trace, herm, low


def rounding_excess(orig: np.ndarray, back: np.ndarray, rel: float = 6e-12) -> float:
    """How far a 12-significant-digit round trip strays beyond its rounding, per part."""
    worst = 0.0
    for a, b in ((np.real(orig), np.real(back)), (np.imag(orig), np.imag(back))):
        worst = max(worst, float(np.max(np.abs(a - b) - rel * np.abs(a))))
    return worst
