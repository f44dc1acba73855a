"""Eigenfrequency sensitivity of resonant cavities under geometry uncertainty.

The modules are organized along the pipeline and are the import paths:
``splines`` and ``geometry`` describe the domain, ``assembly`` produces
matrix pencils, ``pencil`` parametrizes them, ``eigen`` solves them,
``tracking`` follows eigenpairs through parameter changes, ``uq`` handles
model reduction and collocation, ``oracle`` provides closed-form
references, and ``cli`` drives batch studies.
"""
