"""Szegedy spatial-search simulator and exceptional-configuration attack toolkit.

Import names from their modules: qwattack.graphs, qwattack.szegedy,
qwattack.exceptional, qwattack.attack, qwattack.experiments and qwattack.cli.
"""

__version__ = "0.1.0"
