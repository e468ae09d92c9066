import gc

from .cli import main

if __name__ == "__main__":
    status = main()
    gc.freeze()  # exit without teardown's collections over the numpy and scipy heap
    raise SystemExit(status)
