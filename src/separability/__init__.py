"""Distance-based separability analysis for labeled datasets.

Core idea: a dataset is easy to classify when each class's intra-class
distances are distributed differently from its distances to the rest of
the data.  ``dsi`` turns that into an index in [0, 1] via two-sample
statistics over distance multisets; ``compute_measures`` provides eight
classical complexity measures for comparison; ``generate`` builds seeded
synthetic benchmark shapes; loaders cover CSV and the CIFAR binary
formats.
"""

from . import dataset, distances, errors, fetch, generators, measures, stats
from . import dsi as _dsi  # before the function dsi takes the module's name
from .dataset import *
from .distances import *
from .dsi import *
from .errors import *
from .fetch import *
from .generators import *
from .measures import *
from .stats import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += dataset.__all__
__all__ += fetch.__all__
__all__ += generators.__all__
__all__ += distances.__all__
__all__ += stats.__all__
__all__ += _dsi.__all__
__all__ += measures.__all__
__all__ += errors.__all__
