"""Talent-flow analytics over career-history profiles.

Turns job histories into talent-flow insight: normalizes job titles with
a grammar-based parser, extracts job hops, computes job-attribute metrics
(experience, age, level, promotion/demotion), and builds weighted directed
talent-flow networks at the job and organization level.
"""

__version__ = "0.1.0"

from .dates import format_years, month_text, parse_month
from .ingest import (JobSpell, LoadReport, PersonProfile, ProfileSet,
                     Rejection, is_core_user, load_profiles, support_filter)

__all__ = [
    "__version__",
    "format_years",
    "month_text",
    "parse_month",
    "JobSpell",
    "LoadReport",
    "PersonProfile",
    "ProfileSet",
    "Rejection",
    "is_core_user",
    "load_profiles",
    "support_filter",
]
