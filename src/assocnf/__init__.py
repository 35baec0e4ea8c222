"""Terms over one associative connective, rewritten to right-nested normal form.

The single rule ``(x*y)*z -> x*(y*z)`` terminates and is confluent, so every
term has a unique normal form: the right chain over the same leaves.  This
package computes normal forms under the two extreme strategies with exact
step counts (``size - d_rm`` for the shortest, ``sigma`` for the longest),
and verifies every such claim exhaustively on all small shapes via
independent graph searches.
"""

from . import oracle, rewrite, terms
from .oracle import *  # noqa: F403
from .rewrite import *  # noqa: F403
from .terms import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*terms.__all__, *rewrite.__all__, *oracle.__all__, "__version__"]
