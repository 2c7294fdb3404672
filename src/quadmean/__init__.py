"""Exact local invariants of binary quadratic forms over p-adic rings and
the mean value of class number times regulator over quadratic fields."""
