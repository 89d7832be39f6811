"""Fourier (von Neumann) stability analysis of the two-stage scheme.

For linear advection with unit speed the full two-stage update couples an
element to at most its two neighbours on each side, so it can be written as

    u_e^{n+1} = sum_k C_k u_{e+k}^n,     k in {-2, ..., +2}

with (N+1)x(N+1) coefficient matrices C_k that depend on the CFL number
sigma and the dissipation variant.  Substituting the Fourier ansatz turns
the update into multiplication by H(sigma, kappa) = sum_k C_k e^{i kappa k};
the scheme is stable when the spectral radius of H stays <= 1 over all
wavenumbers.

The coefficient matrices are assembled mechanically by composing the two
stages as Laurent polynomials in the shift operator, which covers both the
time-averaged-trace dissipation (upwind structure, C_{+1} = C_{+2} = 0) and
the start-of-step-trace dissipation (full five-block stencil).
"""

from dataclasses import dataclass

import numpy as np

from . import ssprk
from .errors import ConfigurationError
from .operators import ReferenceOperators

DISSIPATION_KINDS = ("d1", "d2")


def _badd(*dicts):
    out = {}
    for d in dicts:
        for k, m in d.items():
            out[k] = out.get(k, 0.0) + m
    return out


def _bscale(c, blocks):
    return {k: c * m for k, m in blocks.items()}


def _lmul(mat, blocks):
    return {k: mat @ m for k, m in blocks.items()}


def _bshift(blocks, s):
    return {k + s: m for k, m in blocks.items()}


def _rows(vec, blocks):
    """Contract a length-P vector against each block: row-vector blocks."""
    return {k: vec @ m for k, m in blocks.items()}


def _outer(col, row_blocks):
    return {k: np.outer(col, r) for k, r in row_blocks.items()}


def _face_flux_blocks(phi, psi, ops):
    """Blocks of the numerical flux at the right face of element e.

    Central part averages the extrapolated nodal flux from both sides;
    the dissipation penalises the jump of the trace states psi.  Advection
    speed and the dissipation coefficient are both normalised to one.
    """
    central = _badd(_bscale(0.5, _rows(ops.VR, phi)),
                    _bshift(_bscale(0.5, _rows(ops.VL, phi)), +1))
    jump = _badd(_bscale(0.5, _rows(ops.VR, psi)),
                 _bshift(_bscale(-0.5, _rows(ops.VL, psi)), +1))
    return _badd(central, jump)


def _flux_derivative_blocks(phi, face, ops):
    """Blocks of the corrected flux derivative at the solution points."""
    return _badd(_outer(ops.bL, _bshift(face, -1)),
                 _lmul(ops.D1, phi),
                 _outer(ops.bR, face))


@dataclass(frozen=True)
class AmplificationSetup:
    """Update blocks of the two-stage scheme for one (sigma, dissipation)."""

    ops: ReferenceOperators
    sigma: float
    dissipation: str
    update: dict      # blocks C_k of u^{n+1} in terms of u^n


def assemble_matrices(ops, sigma, dissipation):
    """Assemble the update blocks for unit-speed advection at CFL sigma."""
    if dissipation not in DISSIPATION_KINDS:
        raise ConfigurationError(
            f"unknown dissipation kind {dissipation!r}; expected one of {DISSIPATION_KINDS}")
    p = ops.degree + 1
    eye = np.eye(p)
    t1 = eye - (sigma / 4.0) * ops.D

    # stage 1: time-averaged flux is the time-averaged solution (a = 1)
    uavg1 = {0: t1}
    psi1 = uavg1 if dissipation == "d2" else {0: eye}
    face1 = _face_flux_blocks(uavg1, psi1, ops)
    r1 = _flux_derivative_blocks(uavg1, face1, ops)
    stage1 = _badd({0: eye}, _bscale(-sigma / 2.0, r1))

    # stage 2: the averaged solution mixes u^n and u*
    t2 = eye - (sigma / 6.0) * ops.D
    t2s = -(sigma / 3.0) * ops.D
    uavg2 = _badd({0: t2}, _lmul(t2s, stage1))
    psi2 = uavg2 if dissipation == "d2" else {0: eye}
    face2 = _face_flux_blocks(uavg2, psi2, ops)
    r2 = _flux_derivative_blocks(uavg2, face2, ops)
    update = _badd({0: eye}, _bscale(-sigma, r2))

    return AmplificationSetup(ops, sigma, dissipation, update)


def amplification_matrix(setup, kappa):
    """H(sigma, kappa); kappa may be an array (batched in the leading axis)."""
    kappa = np.asarray(kappa, dtype=float)
    p = setup.ops.degree + 1
    h = np.zeros(kappa.shape + (p, p), dtype=complex)
    for k, m in setup.update.items():
        h += np.exp(1j * kappa * k)[..., None, None] * m
    return h


def max_spectral_radius(setup, kappas):
    return float(np.max(np.abs(np.linalg.eigvals(amplification_matrix(setup, kappas)))))


def _wavenumbers(nkappa):
    """The samples in [0, pi] of the uniform nkappa-point grid on [0, 2*pi).

    The update blocks C_k are real, so H(2*pi - kappa) = conj H(kappa) and
    the two have eigenvalues of equal modulus.  Sample j of the full grid
    pairs with sample nkappa - j, so the first nkappa // 2 + 1 samples
    carry every radius of the full grid, for odd and even nkappa alike.
    """
    if nkappa < 1:
        raise ConfigurationError(f"need at least one wavenumber sample, got {nkappa}")
    return np.linspace(0.0, 2.0 * np.pi, nkappa, endpoint=False)[:nkappa // 2 + 1]


def _largest_stable(radius, sigma_max, tol, radius_tol):
    """Largest CFL number sigma with radius(sigma) <= 1 + radius_tol.

    A 60-point scan from sigma = tol to sigma_max brackets the first
    unstable value; bisection then narrows the bracket to tol.
    """
    limit = 1.0 + radius_tol
    lo = tol
    rho = radius(lo)
    if not rho <= limit:
        raise RuntimeError(f"scheme unstable even at sigma = {lo}: rho = {rho:.6f}")
    grid = np.linspace(lo, sigma_max, 60)
    hi = None
    for sig in grid[1:]:
        if radius(sig) <= limit:
            lo = sig
        else:
            hi = sig
            break
    if hi is None:
        return float(grid[-1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if radius(mid) <= limit:
            lo = mid
        else:
            hi = mid
    return float(lo)


def find_cfl(ops, dissipation, nkappa=1024, sigma_max=0.6, tol=5e-4,
             radius_tol=1e-10):
    """Largest stable CFL number, bracketed by a coarse scan plus bisection.

    Stability means max_kappa rho(H) <= 1 + radius_tol over nkappa uniform
    wavenumber samples in [0, 2*pi); by conjugate symmetry only those in
    [0, pi] are evaluated.
    """
    kappas = _wavenumbers(nkappa)
    return _largest_stable(
        lambda sig: max_spectral_radius(assemble_matrices(ops, sig, dissipation), kappas),
        sigma_max, tol, radius_tol)


def cfl_scan(ops, dissipation, sigmas, nkappa=1024):
    """max_kappa rho(H) for each sigma; plot-ready (sigma, radius) pairs."""
    kappas = _wavenumbers(nkappa)
    return [(float(s), max_spectral_radius(assemble_matrices(ops, s, dissipation), kappas))
            for s in sigmas]


def _rkfr_symbol(ops, kappa):
    """L(kappa): the baseline's semi-discrete upwind operator at unit CFL.

    Unit-speed advection gives u' = (sigma / dt) L(kappa) u per element.
    """
    kappa = np.asarray(kappa, dtype=float)
    cell = ops.D - np.outer(ops.bL, ops.VL)
    neigh = np.outer(ops.bL, ops.VR)
    return -(cell + np.exp(-1j * kappa)[..., None, None] * neigh)


def rkfr_update_matrix(ops, sigma, kappa):
    """Fourier symbol of one Runge-Kutta baseline step at CFL sigma.

    The five-stage SSP scheme applied to the semi-discrete operator gives
    the amplification matrix directly.
    """
    return ssprk.amplification(sigma * _rkfr_symbol(ops, kappa))


def find_rkfr_cfl(ops, nkappa=1024, sigma_max=0.6, tol=5e-4, radius_tol=1e-10):
    """Largest stable CFL of the Runge-Kutta baseline on advection.

    One step is a polynomial P of sigma * L(kappa), so its eigenvalues are
    P(sigma * lambda) for the eigenvalues lambda of L(kappa): these are
    solved for once and the search maps them through P at every sigma.
    """
    lam = np.linalg.eigvals(_rkfr_symbol(ops, _wavenumbers(nkappa)))[..., None, None]
    return _largest_stable(
        lambda sig: float(np.max(np.abs(ssprk.amplification(sig * lam)))),
        sigma_max, tol, radius_tol)


# defaults used for runs: Fourier-certified (find_cfl, rounded down)
_SAFE_CFL = {
    ("radau", "d2"): 0.107,
    ("g2", "d2"): 0.224,
    ("radau", "d1"): 0.084,
    ("g2", "d1"): 0.145,
}


def default_cfl(correction, dissipation):
    """Stable CFL used when the configuration does not pin one."""
    try:
        return _SAFE_CFL[(correction, dissipation)]
    except KeyError:
        raise ConfigurationError(
            f"no default CFL for correction={correction!r}, dissipation={dissipation!r}")

