"""Slice-regular quaternionic polynomials and their twistor geometry."""

from .errors import (ConditioningWarning, DomainError, FitError, NotOnSurface,
                     NotReal, NotUnit, OutsideRadius, PoleDetected, PoleHit,
                     RealArgument, SingularPoint, ZeroPolynomial)
from .quat_core import (ChartPoint, Quaternion, Sphere, conj_by_unit,
                        imag_unit, is_real, phi, phi_inverse, sphere_of)
from .regular_fn import (RegularSeries, SphericalExpansion, ZeroSet, conjugate,
                         divide_linear, divide_real_quadratic, eval_series,
                         slice_values, spherical_expansion, star_mul,
                         star_power, symmetrize, zeros)
from .differential import (Rank, RankClass, RealLinearMap4,
                           SingularityCertificate, differential_at,
                           directional_derivative, is_degenerate_sphere,
                           is_singular, rank_classify)
from .ocs import (MobiusCoeffs, OCSValue, induced_ocs, is_so2h, j_standard,
                  mobius)
from .twistor import (CurveSample, HP1Point, KleinPoint, ProjectivePoint3,
                      SplitPair, fiber_plucker, in_q_plus, j_involution, lift,
                      line_plucker, on_quadric, reconstruct, sigma,
                      twistor_project, twistor_transform)
from .parabola import (FiberClass, FiberKind, SurfaceClass, discriminant_D,
                       f_par, fiber_intersections, fiber_polynomial, grad_K,
                       in_solid, j_minus, j_plus, on_parabola, on_paraboloid,
                       osculating_sphere_point, preimages, quartic_K,
                       singular_locus_class)
from .parsing import ParseError, parse_polynomial

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
