"""Exact analysis of unconditionally secure message authentication, classical
and quantum: hash-family deception probabilities by brute force, the
symmetric prepare-and-measure tagging framework and its impersonation floor,
the singlet-keyed one-bit protocol with optimal attacks, and symmetry-test
verification with its copy-count and key-length accounting."""

__version__ = "0.1.0"
