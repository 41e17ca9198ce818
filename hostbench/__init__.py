"""Host-time benchmark of the reproduction (see ``hostbench/README.md``)."""
