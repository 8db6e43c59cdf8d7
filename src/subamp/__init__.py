"""Privacy amplification and FFT loss accounting for subsampling schemes.

Closed-form amplified (eps', delta') for Poisson, WOR, WR, and the two-stage
MUST family; privacy loss distributions of the subsampled Gaussian mechanism
with a Fourier accountant for k-fold composition; executable samplers as the
Monte-Carlo ground truth; and a desk-scale DP-SGD / bootstrap harness.

The package exports every public module's `__all__`, which is the one list
of that module's public names.
"""

from . import accountant, amplification, harness, mechanisms, pld, sampling, schemes
from .accountant import *
from .amplification import *
from .harness import *
from .mechanisms import *
from .pld import *
from .sampling import *
from .schemes import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (accountant, amplification, harness, mechanisms, pld, sampling, schemes)
    for name in module.__all__
]
