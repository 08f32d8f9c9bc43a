"""``python -m mcmc_certify``: the same entry point as the ``mcmc-certify`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
