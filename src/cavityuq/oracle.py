"""Closed-form reference spectra for circular and cylindrical cavities.

Mode frequencies follow from separation of variables on a cylinder, with the
Bessel zeros x_mn and x'_mn taken from ``scipy.special`` (``jn_zeros`` and
``jnp_zeros``) over the supported table m <= 10, n <= 10.  Nothing here
touches the discretization or solver stack, so the values can serve as an
independent check of everything else.

Conventions: ``TM`` modes use zeros x_mn of J_m (axial index p >= 0), ``TE``
modes use zeros x'_mn of J_m' (p >= 1).  Modes with azimuthal index m >= 1
are doubly degenerate and reported once with ``degeneracy == 2``.
"""

import math
from dataclasses import dataclass

from .errors import DomainError

# vacuum speed of light, m/s (exact SI value, equals 1/sqrt(eps0*mu0))
C0 = 299792458.0

_MAX_ORDER = 10
_MAX_INDEX = 10


def _check_zero_args(m: int, n: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or not (0 <= m <= _MAX_ORDER):
        raise DomainError(f"order m must be an integer in [0, {_MAX_ORDER}], got {m!r}")
    if not isinstance(n, int) or isinstance(n, bool) or not (1 <= n <= _MAX_INDEX):
        raise DomainError(f"index n must be an integer in [1, {_MAX_INDEX}], got {n!r}")


def bessel_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m (n = 1 is the first)."""
    _check_zero_args(m, n)
    # imported at the first zero: pencil imports C0 from here, and a study,
    # which asks for no zero, imports no scipy
    import scipy.special

    return float(scipy.special.jn_zeros(m, n)[n - 1])


def bessel_derivative_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m' (the trivial zero at x = 0 is excluded)."""
    _check_zero_args(m, n)
    import scipy.special

    return float(scipy.special.jnp_zeros(m, n)[n - 1])


@dataclass(frozen=True, order=True)
class ModeLabel:
    """Identity of one cylinder mode: family, azimuthal m, radial n, axial p."""
    family: str
    m: int
    n: int
    p: int
    degeneracy: int = 1

    def __str__(self):
        return f"{self.family}{self.m}{self.n}{self.p}"


def mode_frequency(label: ModeLabel, r: float, l: float) -> float:
    """Resonant frequency in Hz of a labeled mode for radius r and length l."""
    if r <= 0.0 or l <= 0.0:
        raise DomainError(f"radius and length must be positive, got r={r}, l={l}")
    if label.family == "TM":
        x = bessel_zero(label.m, label.n)
    elif label.family == "TE":
        x = bessel_derivative_zero(label.m, label.n)
    else:
        raise DomainError(f"unknown mode family {label.family!r}")
    k = math.hypot(x / r, label.p * math.pi / l)
    return C0 * k / (2.0 * math.pi)


def _enumerate_modes(r: float, l: float, f_cut: float):
    """All TM/TE modes with frequency <= f_cut, or DomainError if the
    supported Bessel-zero table cannot certify completeness."""
    k_cut = 2.0 * math.pi * f_cut / C0
    x_cut = k_cut * r
    p_cut = int(l * k_cut / math.pi)
    modes = []
    for family in ("TM", "TE"):
        zero_of = bessel_zero if family == "TM" else bessel_derivative_zero
        p_min = 0 if family == "TM" else 1
        for m in range(0, _MAX_ORDER + 1):
            # the first radial zero grows with m, except that x'_01 > x'_11;
            # only break once past that exception
            if zero_of(m, 1) > x_cut:
                if family == "TE" and m == 0:
                    continue
                break
            if m == _MAX_ORDER:
                raise DomainError(
                    "requested mode count needs azimuthal orders beyond the "
                    f"supported m <= {_MAX_ORDER}"
                )
            for n in range(1, _MAX_INDEX + 1):
                x = zero_of(m, n)
                if x > x_cut:
                    break
                if n == _MAX_INDEX:
                    raise DomainError(
                        "requested mode count needs radial indices beyond the "
                        f"supported n <= {_MAX_INDEX}"
                    )
                for p in range(p_min, p_cut + 1):
                    k = math.hypot(x / r, p * math.pi / l)
                    f = C0 * k / (2.0 * math.pi)
                    if f <= f_cut:
                        deg = 2 if m >= 1 else 1
                        modes.append((f, ModeLabel(family, m, n, p, deg)))
    return modes


def pillbox_frequencies(r: float, l: float, count: int):
    """The ``count`` lowest cylinder modes as (ModeLabel, frequency_hz) pairs.

    Doubly degenerate modes (m >= 1) appear once, carrying degeneracy 2.
    Ties are broken by (family, m, n, p) so the order is deterministic.
    Raises DomainError when the supported Bessel zeros (m, n <= 10) cannot
    certify the count lowest.
    """
    if r <= 0.0 or l <= 0.0:
        raise DomainError(f"radius and length must be positive, got r={r}, l={l}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count must be a positive integer, got {count!r}")
    if count > 50:
        raise DomainError(f"count > 50 is outside the supported range, got {count}")
    # first pass: an upper bound on the count-th frequency from a small
    # restricted family (the count-th smallest of a subset bounds the true one)
    cand = []
    for family, zero_of, p_min in (
        ("TM", bessel_zero, 0),
        ("TE", bessel_derivative_zero, 1),
    ):
        for m in range(0, 4):
            for n in range(1, 4):
                x = zero_of(m, n)
                for p in range(p_min, count + 1):
                    k = math.hypot(x / r, p * math.pi / l)
                    cand.append(C0 * k / (2.0 * math.pi))
    cand.sort()
    f_cut = cand[count - 1] * (1.0 + 1e-9)
    modes = _enumerate_modes(r, l, f_cut)
    modes.sort(key=lambda t: (t[0], t[1].family, t[1].m, t[1].n, t[1].p))
    return [(lab, f) for f, lab in modes[:count]]


def crossing_radius(l: float) -> float:
    """Radius where the lowest TM and lowest TE mode exchange order.

    For a cylinder of length l the fundamental is TM_010 at large radius and
    TE_111 at small radius; equality holds at
    r = l * sqrt(x_01^2 - x'_11^2) / pi.
    """
    if l <= 0.0:
        raise DomainError(f"length must be positive, got {l}")
    x01 = bessel_zero(0, 1)
    xp11 = bessel_derivative_zero(1, 1)
    return l * math.sqrt(x01 * x01 - xp11 * xp11) / math.pi
