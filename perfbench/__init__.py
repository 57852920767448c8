"""The repository benchmark for rnsbarrett; ``run.py`` is the entry point."""
