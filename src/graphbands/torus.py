"""Spectrum as a subset of the torus of edge phases.

The map k -> (k l_1, ..., k l_E) mod 2 pi winds a line through the
E-torus; for rationally independent lengths the line equidistributes, so
the band density of the spectrum equals the volume of the set of torus
points where some quasi-momentum solves the secular equation.  That
volume depends only on the combinatorial graph, never on the lengths,
which is why every generic length draw produces the same band density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bond_system import BondSystem
from .spectrum import membership_from_phases

TWO_PI = 2.0 * np.pi
_MC_CHUNK = 65536


@dataclass(frozen=True)
class TorusPoint:
    """Point of the edge-phase torus, components in [0, 2 pi)."""

    kappa: np.ndarray

    def __post_init__(self):
        kappa = np.asarray(self.kappa, dtype=float)
        if kappa.ndim != 1:
            raise ValueError("kappa must be a 1-D array")
        if np.any(kappa < 0) or np.any(kappa >= TWO_PI):
            raise ValueError("kappa components must lie in [0, 2 pi)")
        object.__setattr__(self, "kappa", kappa)

    @property
    def dim(self) -> int:
        return len(self.kappa)


def flow_point(lengths, k: float) -> TorusPoint:
    """Image of momentum k under the linear flow of the given lengths."""
    lengths = np.asarray(lengths, dtype=float)
    if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
        raise ValueError("lengths must be strictly positive and finite")
    return TorusPoint(np.mod(k * lengths, TWO_PI))


def sigma_membership(bs: BondSystem, point: TorusPoint,
                     threads: int | None = None) -> bool:
    """True iff the torus point solves the secular equation for some
    quasi-momentum; same criterion and tolerance as momentum membership."""
    if point.dim != bs.n_edges:
        raise ValueError("torus point has dimension %d, expected %d"
                         % (point.dim, bs.n_edges))
    phases = point.kappa[bs.edge_of_bond][None, :]
    return bool(membership_from_phases(bs, phases, threads)[0])


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo estimate of the torus volume fraction of the band set."""

    value: float
    std_error: float
    samples: int
    seed: int


def mc_fraction(indicator, dim: int, samples: int, seed: int):
    """Fraction of uniform points of the ``dim``-torus where ``indicator``
    holds, with its binomial standard error sqrt(p(1-p)/n).

    ``indicator`` maps an (n, dim) array of phases in [0, 2 pi) to n
    booleans.  Points come from a counter-based Philox stream in chunks
    of ``_MC_CHUNK`` rows; chunking does not change the stream, so the
    result depends only on (samples, seed).
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        kappa = rng.uniform(0.0, TWO_PI, size=(n, dim))
        hits += int(np.count_nonzero(indicator(kappa)))
        done += n
    p = hits / samples
    return p, float(np.sqrt(p * (1.0 - p) / samples))


def mc_volume(bs: BondSystem, samples: int, seed: int,
              threads: int | None = None) -> VolumeEstimate:
    """Monte Carlo volume of the secular zero-set union on the torus.

    Samples :func:`mc_fraction` with the secular membership test.  The
    estimate converges to the band density of any graph with the same
    shape and rationally independent lengths.  ``threads`` splits only
    LU determinant work (graphs above the compile budget).
    """
    def member(kappa):
        return membership_from_phases(bs, kappa[:, bs.edge_of_bond], threads)

    p, se = mc_fraction(member, bs.n_edges, samples, seed)
    return VolumeEstimate(value=p, std_error=se, samples=samples,
                          seed=int(seed))
