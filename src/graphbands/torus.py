"""Band density as a Monte Carlo volume on the torus of edge phases.

The map k -> (k l_1, ..., k l_E) mod 2 pi winds a line through the
E-torus; for rationally independent lengths the line equidistributes, so
the band density of the spectrum equals the volume of the set of torus
points where some quasi-momentum solves the secular equation.  That
volume depends only on the combinatorial graph, never on the lengths,
which is why every generic length draw produces the same band density.
:func:`mc_volume` estimates it by feeding uniform torus points straight
to :func:`graphbands.spectrum.membership_from_phases`, whose rows are
edge phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .bond_system import BondSystem
from .spectrum import membership_from_phases, positive_count

TWO_PI = 2.0 * np.pi
# rows per membership call; at 16,384 lasso rows the phases and the
# float32 temporaries of the kernel stay in a 2 MiB L2 cache, and 60,000
# rows took 4.0 ms against 5.8 ms at 65,536 rows per call
_MC_CHUNK = 16384


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo estimate of the torus volume fraction of the band set."""

    value: float
    std_error: float
    samples: int
    seed: int


def mc_volume(bs: BondSystem, samples: int, seed: int,
              threads: int | None = None) -> VolumeEstimate:
    """Monte Carlo volume of the secular zero-set union on the torus.

    The fraction of uniform torus points where the secular membership
    test holds, with its binomial standard error sqrt(p(1-p)/n).  It
    converges to the band density of any graph with the same shape and
    rationally independent lengths.  Points come from a counter-based
    Philox stream in chunks of ``_MC_CHUNK`` rows; chunking does not
    change the stream, so the result depends only on (samples, seed).
    ``threads`` has no effect: membership rows evaluate the compiled
    secular polynomial, with no determinant work to split.  A ``samples``
    that is not an integer >= 1, or a ``seed`` that is not an integer >=
    0 (a bool included), is refused by name.
    """
    samples = positive_count(samples, "samples")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError("seed must be an integer >= 0, got %r" % (seed,))
    rng = np.random.Generator(np.random.Philox(seed))
    hits = done = 0
    while done < samples:
        n = min(_MC_CHUNK, samples - done)
        kappa = rng.uniform(0.0, TWO_PI, size=(n, bs.n_edges))
        hits += int(np.count_nonzero(membership_from_phases(bs, kappa)))
        done += n
    p = hits / samples
    se = float(np.sqrt(p * (1.0 - p) / samples))
    return VolumeEstimate(value=p, std_error=se, samples=samples,
                          seed=int(seed))
