"""Reference computations that share no code with qmeasure.

Everything here works from plain numbers (gate matrices, angles, state
vectors, probability tables) with numpy alone, so a fault in the library
cannot hide by being repeated in the check.
"""

from __future__ import annotations

import numpy as np

REL = 1e-9  # the method's documented relative tolerance


# ---------------------------------------------------------------------------
# Circuit path sums

def path_sum(sites, q, psi, gates, t_f):
    """Amplitudes of every lattice history of a pure-state circuit.

    `gates` is a list of (layer, sites, matrix) with big-endian index order
    over the listed sites.  Returns a tensor with one axis per cell, cell
    (s, t) at axis t * sites + s, holding
    psi(x_0) * prod_t [gate elements and identity wires from x_{t-1} to x_t].
    """
    ncell = sites * (t_f + 1)
    grids = np.indices((q,) * ncell, sparse=True)

    def cell(s, t):
        return grids[t * sites + s]

    def conf(t, group):
        idx = 0
        for s in group:
            idx = idx * q + cell(s, t)
        return idx

    amp = np.asarray(psi, dtype=complex).reshape(-1)[conf(0, range(sites))]
    for t in range(1, t_f + 1):
        touched = set()
        for layer, gsites, matrix in gates:
            if layer != t:
                continue
            touched |= set(gsites)
            amp = amp * np.asarray(matrix)[conf(t, gsites), conf(t - 1, gsites)]
        for s in range(sites):
            if s not in touched:
                amp = amp * (cell(s, t) == cell(s, t - 1))
    return np.broadcast_to(amp, (q,) * ncell).copy()


def final_index(amp_shape, sites, t_f, q):
    """Index of each history's configuration on slice t_f (big-endian)."""
    grids = np.indices(amp_shape, sparse=True)
    idx = 0
    for s in range(sites):
        idx = idx * q + grids[t_f * sites + s]
    return np.broadcast_to(idx, amp_shape)


def region_vectors(amp, fin, dim, cells_axes):
    """Branch vectors (dim x atoms) of the atoms of the region whose cells
    sit on the given tensor axes, atoms ordered by restricted values."""
    n = amp.ndim
    q = amp.shape[0]
    rest = [a for a in range(n) if a not in cells_axes]
    order = list(cells_axes) + rest
    n_atoms = q ** len(cells_axes)
    a = np.transpose(amp, order).reshape(n_atoms, -1)
    f = np.transpose(fin, order).reshape(n_atoms, -1)
    slot = (np.arange(n_atoms)[:, None] * dim + f).ravel()
    re = np.bincount(slot, weights=a.real.ravel(), minlength=n_atoms * dim)
    im = np.bincount(slot, weights=a.imag.ravel(), minlength=n_atoms * dim)
    return (re + 1j * im).reshape(n_atoms, dim).T


def screening_off_max(amp, fin, dim, z_axes, a_axes, b_axes, limit=1 << 26):
    """Largest |D(EA EB G, EA' EB' G') D(G, G') - D(EA G, EA' G') D(EB G, EB' G')|
    over every combination of atoms of the past (G, G') and wing (EA, EA',
    EB, EB') region algebras.

    An atom whose histories all have zero amplitude makes both sides zero,
    so only atoms carrying amplitude are enumerated.  Requires every
    (G, EA, EB) triple to be a single history and the final slice to lie
    inside the wings, as on the stock circuits.
    """
    q = amp.shape[0]
    nz, na, nb = q ** len(z_axes), q ** len(a_axes), q ** len(b_axes)
    order = list(z_axes) + list(a_axes) + list(b_axes)
    if len(order) != amp.ndim:
        raise ValueError("regions must cover every cell")
    a3 = np.transpose(amp, order).reshape(nz, na, nb)
    f3 = np.transpose(fin, order).reshape(nz, na, nb)
    if not (f3 == f3[:1]).all():
        raise ValueError("final slice must lie inside the wings")
    f2 = f3[0]
    zv = np.zeros((nz, dim), dtype=complex)
    av = np.zeros((nz, na, dim), dtype=complex)
    bv = np.zeros((nz, nb, dim), dtype=complex)
    for ia in range(na):
        for ib in range(nb):
            zv[:, f2[ia, ib]] += a3[:, ia, ib]
            av[:, ia, f2[ia, ib]] += a3[:, ia, ib]
            bv[:, ib, f2[ia, ib]] += a3[:, ia, ib]
    mag = np.abs(a3)
    z = np.flatnonzero(mag.max(axis=(1, 2)) > 0)
    a = np.flatnonzero(mag.max(axis=(0, 2)) > 0)
    b = np.flatnonzero(mag.max(axis=(0, 1)) > 0)
    if (len(z) * len(a) * len(b)) ** 2 > limit:
        raise ValueError("atoms carrying amplitude are too many for an exhaustive scan")
    amp_s = a3[np.ix_(z, a, b)]
    fin_s = f2[np.ix_(a, b)]
    same = fin_s[:, :, None, None] == fin_s[None, None, :, :]  # (pa, pb, qa, qb)
    s_z = zv[z].conj() @ zv[z].T
    av_s, bv_s = av[np.ix_(z, a)], bv[np.ix_(z, b)]
    worst = 0.0
    for g in range(len(z)):
        d_a = np.einsum("pf,hqf->hpq", av_s[g].conj(), av_s)
        d_b = np.einsum("pf,hqf->hpq", bv_s[g].conj(), bv_s)
        lhs = (
            amp_s[g].conj()[None, :, :, None, None] * amp_s[:, None, None, :, :]
            * same[None] * s_z[g][:, None, None, None, None]
        )  # (h, pa, pb, qa, qb)
        rhs = d_a[:, :, None, :, None] * d_b[:, None, :, None, :]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def truncation_residual(sites, q, psi, gates, t_lo, t_hi, regions):
    """Largest entry gap between the functionals truncated at t_lo and t_hi,
    restricted to each region (a list of (site, t) cells with t <= t_lo)."""
    worst = 0.0
    models = {}
    for t_f in (t_lo, t_hi):
        amp = path_sum(sites, q, psi, gates, t_f)
        models[t_f] = (amp, final_index(amp.shape, sites, t_f, q))
    for region in regions:
        mats = []
        for t_f in (t_lo, t_hi):
            amp, fin = models[t_f]
            axes = [t * sites + s for s, t in region]
            v = region_vectors(amp, fin, q ** sites, axes)
            mats.append(v.conj().T @ v)
        worst = max(worst, float(np.abs(mats[0] - mats[1]).max()))
    return worst


# ---------------------------------------------------------------------------
# Causal order of a circuit and the PoZ / LoN quantities

def circuit_order(sites, t_f, gates):
    """Reflexive-transitive relation over cells: identity wires and every
    gate's inputs to every gate output.  Cell (s, t) is index t*sites+s."""
    n = sites * (t_f + 1)
    rel = np.eye(n, dtype=bool)
    for t in range(1, t_f + 1):
        touched = set()
        for layer, gsites, _ in gates:
            if layer != t:
                continue
            touched |= set(gsites)
            for si in gsites:
                for so in gsites:
                    rel[(t - 1) * sites + si, t * sites + so] = True
        for s in range(sites):
            if s not in touched:
                rel[(t - 1) * sites + s, t * sites + s] = True
    for k in range(n):  # Warshall closure
        rel |= rel[:, k:k + 1] & rel[k:k + 1, :]
    return rel


def poz_violation(amp, fin, dim, rel, region_axes):
    """(kernel_dim, violation) for one region, or None when its shadow is
    empty.  The kernel of the shadow's atom vectors comes from an SVD; the
    violation is the largest squared singular value of a region atom's
    conjunction vectors on that kernel."""
    n = amp.ndim
    future = rel[list(region_axes)].any(axis=0) if region_axes else np.zeros(n, bool)
    shadow = [a for a in range(n) if not future[a]]
    if not shadow:
        return None
    v = region_vectors(amp, fin, dim, shadow)
    _, s, wh = np.linalg.svd(v, full_matrices=False)
    rank = int((s > np.sqrt(REL) * s[0]).sum()) if s.size and s[0] > 0 else 0
    row = wh[:rank]
    kernel_dim = v.shape[1] - rank
    q = amp.shape[0]
    worst = 0.0
    if kernel_dim:
        rest = [a for a in range(n) if a not in region_axes]
        shape = (q ** len(region_axes),) + (q,) * len(rest)
        by_atom = np.transpose(amp, list(region_axes) + rest).reshape(shape)
        fin_by_atom = np.transpose(fin, list(region_axes) + rest).reshape(shape)
        shadow_pos = [rest.index(a) for a in shadow]
        for atom_amp, atom_fin in zip(by_atom, fin_by_atom):
            w = region_vectors(atom_amp, atom_fin, dim, shadow_pos)
            p = w - (w @ row.conj().T) @ row
            worst = max(worst, float(np.linalg.norm(p, 2) ** 2))
    return kernel_dim, worst


def span_dim(v):
    if v.size == 0:
        return 0
    s = np.linalg.svd(v, compute_uv=False)
    if s[0] == 0:
        return 0
    return int((s ** 2 > REL * s[0] ** 2).sum())


def lon_residual(vz, vd):
    """Largest residual of a domain atom vector projected off the span of
    the past set's atom vectors (from an SVD), each relative to
    max(1, its own norm)."""
    if vz.shape[1] == 0:
        resid = np.linalg.norm(vd, axis=0)
    else:
        u, s, _ = np.linalg.svd(vz, full_matrices=False)
        rank = int((s ** 2 > REL * s[0] ** 2).sum()) if s[0] > 0 else 0
        u = u[:, :rank]
        resid = np.linalg.norm(vd - u @ (u.conj().T @ vd), axis=0)
    return float((resid / np.maximum(1.0, np.linalg.norm(vd, axis=0))).max(initial=0.0))


def future_domain_axes(rel, past_axes):
    """Cells whose every minimal causal predecessor lies in the past set,
    together with the past set itself."""
    n = rel.shape[0]
    strict = rel & ~np.eye(n, dtype=bool)
    minimal = ~strict.any(axis=0)
    inside = np.zeros(n, bool)
    inside[list(past_axes)] = True
    outside_min = minimal & ~inside
    ok = ~rel[outside_min].any(axis=0) | inside
    return [a for a in range(n) if ok[a]]


# ---------------------------------------------------------------------------
# Spin pairs (Born rule)

def spin_projector(theta):
    v = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return np.outer(v, v)


def born_setting_values(angles, basis, psi, sa, sb):
    """Array (i, j, k, i2, j2, k2) of <(P_a^i x P_b^j) Q_k psi, (P_a^i2 x P_b^j2) Q_k2 psi>."""
    vecs = np.zeros((2, 2, 4, 4), dtype=complex)
    for k in range(4):
        qk = basis[:, k] * np.vdot(basis[:, k], psi)
        for i in range(2):
            for j in range(2):
                pa = spin_projector(angles[sa] + i * np.pi / 2)
                pb = spin_projector(angles[2 + sb] + j * np.pi / 2)
                vecs[i, j, k] = np.kron(pa, pb) @ qk
    return np.einsum("ijkf,lmnf->ijklmn", vecs.conj(), vecs)


def singlet_chsh(angles):
    """|E(a,b) + E(a,b') + E(a',b) - E(a',b')| with E = -cos 2(theta_a - theta_b)."""
    a, ap, b, bp = angles
    e = lambda x, y: -np.cos(2.0 * (x - y))
    return abs(e(a, b) + e(a, bp) + e(ap, b) - e(ap, bp))


def born_joint_witness(angles, psi):
    """A PSD joint over (i, i', j, j') with the four beam functionals as
    setting marginals: the Gram matrix of (P_a^i P_a'^i' x P_b^j P_b'^j') psi.
    Summing either wing's unused slot turns its product into one projector."""
    a, ap, b, bp = angles
    w = np.zeros((2, 2, 2, 2, 4), dtype=complex)
    for i in range(2):
        for ip in range(2):
            for j in range(2):
                for jp in range(2):
                    ma = spin_projector(a + i * np.pi / 2) @ spin_projector(ap + ip * np.pi / 2)
                    mb = spin_projector(b + j * np.pi / 2) @ spin_projector(bp + jp * np.pi / 2)
                    w[i, ip, j, jp] = np.kron(ma, mb) @ psi
    flat = w.reshape(16, 4)
    return (flat.conj() @ flat.T).reshape((2,) * 8)


def witness_marginal_gap(joint, beam):
    """Largest entry gap between a joint's setting marginals and the inputs
    (beam[(sa, sb)] has axes (i, j, i2, j2))."""
    worst = 0.0
    for (sa, sb), target in beam.items():
        drop = (1 - sa, 3 - sb)
        marg = joint.sum(axis=drop + tuple(4 + d for d in drop))
        worst = max(worst, float(np.abs(marg - np.asarray(target)).max()))
    return worst


def min_eigenvalue(joint):
    n = int(np.sqrt(joint.size))
    m = joint.reshape(n, n)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2).min())


# ---------------------------------------------------------------------------
# Local hidden-variable tables

def lhv_setting_tables(p, pa, pb):
    """{(sa, sb): array (i, j, k)} of p_k P(i | sa, k) P(j | sb, k), with
    pa[s, k] / pb[s, k] the probability of outcome 0."""
    out = {}
    for sa in (0, 1):
        for sb in (0, 1):
            ta = np.stack([pa[sa], 1.0 - pa[sa]])  # (i, k)
            tb = np.stack([pb[sb], 1.0 - pb[sb]])
            out[(sa, sb)] = ta[:, None, :] * tb[None, :, :] * p[None, None, :]
    return out


def lhv_joint_witness(p, pa, pb):
    """Diagonal joint over (i, i', j, j') realizing the LHV tables, as an
    eight-axis functional."""
    ta = np.stack([pa, 1.0 - pa], axis=1)  # (s, i, k)
    tb = np.stack([pb, 1.0 - pb], axis=1)
    prob = np.einsum("ak,bk,ck,dk,k->abcd", ta[0], ta[1], tb[0], tb[1], p)
    joint = np.zeros((16, 16), dtype=complex)
    joint[np.arange(16), np.arange(16)] = prob.reshape(16)
    return joint.reshape((2,) * 8)


def chsh_from_tables(tables):
    s = np.array([1.0, -1.0])
    c = {k: float(s @ t @ s) for k, t in tables.items()}
    return abs(c[(0, 0)] + c[(0, 1)] + c[(1, 0)] - c[(1, 1)])
