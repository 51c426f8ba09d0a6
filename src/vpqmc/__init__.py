"""Vlasov-Poisson solvers with quasi-Monte-Carlo sampling.

Eulerian (Fourier split-step) and Lagrangian (geometric PIC) solvers for
the periodic 1x1v Vlasov-Poisson system, plus the machinery that couples
them: Sobol/pseudo-random pair generation, exact star discrepancy,
bilinear Rosenblatt inverse-transform sampling, spline density
estimation, and the spectral-to-PIC handoff.  The package re-exports
nothing: each name is imported from its module, as in
``from vpqmc.driver import cli_main``.
"""
