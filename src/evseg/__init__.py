"""Motion segmentation for event cameras by contrast maximisation.

Events are soft-assigned to a small set of motion hypotheses; each
hypothesis is scored by the sharpness of the image its events form after
being transported to a common reference time, and assignments and motions
are refined in alternation.  Includes a labeled scene simulator, two
alternative clustering back-ends, evaluation utilities and a CLI.
"""

__version__ = "0.1.0"
