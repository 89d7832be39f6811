"""Fourier (von Neumann) stability analysis of the two-stage scheme.

For unit-speed linear advection one step of the solver couples an element
to at most its two neighbours on each side,

    u_e^{n+1} = sum_k C_k u_{e+k}^n,     k in {-2, ..., +2},

with (N+1)x(N+1) blocks C_k that depend on the CFL number sigma and the
dissipation variant.  The Fourier ansatz turns the update into
multiplication by H(sigma, kappa) = sum_k C_k e^{i kappa k} (Vincent,
Castonguay & Jameson, J. Comput. Phys. 2011); the scheme is stable when
the spectral radius of H stays <= 1 over all wavenumbers.

The blocks are read from one solver step of unit probes (_probe), so the
CFL certified here is that of the step the solver runs, with its tableau
and its numerical flux.  The baseline's operator is read the same way.
"""

import os
import threading
from functools import lru_cache

import numpy as np

from . import ssprk
from .errors import ConfigurationError

DISSIPATION_KINDS = ("d1", "d2")
SCAN_DOUBLINGS = 3  # times a search stable over its whole scan doubles its range


@lru_cache(maxsize=None)
def _probe(degree, points, correction, dissipation):
    """Unit-speed advection on five periodic unit cells, the middle one and
    the two a step reaches on either side, with ae faces (for a linear flux
    ea gives the same step, at more cost).  Its p = N+1 variables are the p
    probes: probe j is 1 at node j of the middle cell.  Returns the
    discretization, the probe state and its StepStart.
    """
    from . import core, models

    config = core.RunConfig(degree=degree, points=points, correction=correction,
                            dissipation=dissipation, face_scheme="ae", cfl=1.0)
    disc = core.make_discretization(core.make_grid(0.0, 5.0, 5), models.LinearAdvection(1.0),
                                    config)
    u = np.zeros((5, degree + 1, degree + 1))
    u[2] = np.eye(degree + 1)
    u.setflags(write=False)  # every caller shares it
    return disc, u, core.step_start(disc, u)


def _blocks(response):
    """The blocks C_k, exact zeros left out, of a (cells, nodes, probes)
    probe response: C_k is that of the cell k to the left of the middle one."""
    return {k: response[2 - k] for k in (0, -1, -2, 1, 2) if response[2 - k].any()}


def assemble_matrices(ops, sigma, dissipation):
    """The blocks C_k of u^{n+1} in terms of u^n, as a dict k -> C_k, of one
    solver step of unit-speed advection at CFL sigma."""
    from . import core

    disc, u, start = _probe(ops.degree, ops.nodeset.kind, ops.correction, dissipation)
    response, _ = core.mdrk_step(disc, u, 0.0, sigma, start)
    return _blocks(response)


def amplification_matrix(blocks, kappa):
    """sum_k C_k e^{i kappa k} of a dict of blocks C_k, H(sigma, kappa) for
    those of assemble_matrices; kappa may be an array (batched in the
    leading axis)."""
    kappa = np.asarray(kappa, dtype=float)
    return sum(np.exp(1j * kappa * k)[..., None, None] * m for k, m in blocks.items())


def _eigvals(h):
    """np.linalg.eigvals(h), with a stack of matrices solved on every usable core.

    The stack is cut into min(cores, len(h)) contiguous chunks; the calling
    thread solves the first and one plain thread each of the others (LAPACK
    runs without the interpreter lock), all joined before the chunks are
    concatenated in order.  Every matrix still goes through np.linalg.eigvals
    with the same input bits, so the result is that of one call, bit for
    bit.  A worker's exception is raised here.  np.linalg.eigvals is looked
    up through this module's np name in every chunk, so a wrapper put there
    sees every call.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    nchunks = min(cores, len(h)) if h.ndim > 2 else 1
    if nchunks < 2:
        return np.linalg.eigvals(h)
    chunks = np.array_split(h, nchunks)
    results, errors = [None] * nchunks, []

    def solve(i):
        try:
            results[i] = np.linalg.eigvals(chunks[i])
        except BaseException as exc:  # raised below, once every chunk is done
            errors.append(exc)

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(1, nchunks)]
    for thread in threads:
        thread.start()
    solve(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return np.concatenate(results)


def max_spectral_radius(blocks, kappas):
    """The largest spectral radius of amplification_matrix(blocks, kappa) over kappas."""
    return float(np.max(np.abs(_eigvals(amplification_matrix(blocks, kappas)))))


def _wavenumbers(nkappa):
    """The samples in [0, pi] of the uniform nkappa-point grid on [0, 2*pi).

    The update blocks C_k are real, so H(2*pi - kappa) = conj H(kappa) and
    the two have eigenvalues of equal modulus.  Sample j of the full grid
    pairs with sample nkappa - j, so the first nkappa // 2 + 1 samples
    carry every radius of the full grid, for odd and even nkappa alike.
    """
    if isinstance(nkappa, bool) or not isinstance(nkappa, (int, np.integer)) or nkappa < 1:
        raise ConfigurationError(
            f"nkappa must be a positive integer count of wavenumber samples, got {nkappa!r}")
    return np.linspace(0.0, 2.0 * np.pi, nkappa, endpoint=False)[:nkappa // 2 + 1]


def _largest_stable(radius, sigma_max, tol, radius_tol):
    """Largest CFL number sigma with radius(sigma, limit) <= limit = 1 + radius_tol.

    radius may return any value above limit for an unstable sigma.  A
    60-point scan from sigma = tol to sigma_max brackets the first unstable
    value; when every point is stable, the scan goes on over twice the range,
    up to SCAN_DOUBLINGS times, and a search still stable is refused.
    Bisection then narrows the bracket to tol (or to adjacent floats).
    """
    if not 0.0 < tol < np.inf:
        raise ConfigurationError(f"tol must be positive and finite, got {tol!r}")
    if not tol < sigma_max < np.inf:
        raise ConfigurationError(f"sigma_max must be finite and above tol, got {sigma_max!r}")
    if not 0.0 <= radius_tol < np.inf:
        raise ConfigurationError(f"radius_tol must be non-negative and finite, got {radius_tol!r}")
    limit = 1.0 + radius_tol
    lo = tol
    rho = radius(lo, limit)
    if not rho <= limit:
        raise RuntimeError(f"scheme unstable even at sigma = {lo}: rho = {rho:.6f}")
    hi = None
    for top in sigma_max * 2.0 ** np.arange(SCAN_DOUBLINGS + 1):
        for sig in np.linspace(lo, top, 60)[1:]:
            if not radius(sig, limit) <= limit:
                hi = sig
                break
            lo = sig
        if hi is not None:
            break
    else:
        raise ConfigurationError(f"scheme stable at every trial up to sigma = {lo}")
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if radius(mid, limit) <= limit:
            lo = mid
        else:
            hi = mid
    return float(lo)


def find_cfl(ops, dissipation, nkappa=1024, sigma_max=0.6, tol=5e-4,
             radius_tol=1e-10):
    """Largest stable CFL number, bracketed by a coarse scan plus bisection.

    Stability means max_kappa rho(H) <= 1 + radius_tol over nkappa uniform
    wavenumber samples in [0, 2*pi); by conjugate symmetry only those in
    [0, pi] are evaluated.  An unstable trial mostly breaks at the sample of
    the largest radius at the last unstable trial, so every trial solves
    that sample first and stops there when it is above the limit.
    """
    kappas = _wavenumbers(nkappa)
    worst = None

    def radius(sig, limit):
        nonlocal worst
        h = amplification_matrix(assemble_matrices(ops, sig, dissipation), kappas)
        if worst is not None:
            rho = float(np.max(np.abs(_eigvals(h[worst]))))
            if not rho <= limit:
                return rho
        radii = np.max(np.abs(_eigvals(h)), axis=-1)
        j = int(np.argmax(radii))
        if not radii[j] <= limit:
            worst = j
        return float(radii[j])

    return _largest_stable(radius, sigma_max, tol, radius_tol)


def cfl_scan(ops, dissipation, sigmas, nkappa=1024):
    """max_kappa rho(H) for each sigma; plot-ready (sigma, radius) pairs."""
    kappas = _wavenumbers(nkappa)
    sigmas = [float(s) for s in sigmas]
    # written so that NaN fails it
    if not all(0.0 <= s < np.inf for s in sigmas):
        raise ConfigurationError(f"sigmas must be non-negative and finite, got {sigmas}")
    return [(s, max_spectral_radius(assemble_matrices(ops, s, dissipation), kappas))
            for s in sigmas]


def _rkfr_symbol(ops, kappa):
    """L(kappa): the baseline's semi-discrete upwind operator at unit CFL.

    Unit-speed advection gives u' = (sigma / dt) L(kappa) u per element.
    The blocks are read from one core.rkfr_rhs of the probes as those of
    the corrected flux derivative R = -L, and their sum is negated, so each
    entry is -(R_0 + e^{-i kappa} R_{-1}) bit for bit, signed zeros included.
    """
    from . import core

    disc, _, start = _probe(ops.degree, ops.nodeset.kind, ops.correction, "d2")
    blocks = _blocks(core.element_major(-core.rkfr_rhs(disc, start.u, 0.0)))
    return -amplification_matrix(blocks, kappa)


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
    lam = _eigvals(_rkfr_symbol(ops, _wavenumbers(nkappa)))[..., None, None]
    return _largest_stable(
        lambda sig, limit: float(np.max(np.abs(ssprk.amplification(sig * lam)))),
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

