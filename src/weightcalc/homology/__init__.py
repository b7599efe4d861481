"""Homological engines.

Two independent toolkits: commutative certification of Cohen-Macaulay
properties from one Betti number, read off upper Koszul simplicial
complexes over the full polynomial ring (`taylor`), and a
noncommutative PBW engine computing minimal graded free resolutions
degree by degree (`pbw`, `resolution`).  Both
rank over `linalg`'s exact sparse eliminator.  Callers import the
submodules directly.
"""
