"""Fixed-work, host-normalized benchmark of the paper's cells (see README.md)."""
