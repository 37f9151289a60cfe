"""Independent jobs, such as whole trainings, run on every core at once."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor


def run_pooled(fn, jobs):
    """``[fn(*job) for job in jobs]``, in input order. The jobs run in a
    spawn-context process pool of min(len(jobs), os.cpu_count()) workers, each
    started with OPENBLAS_NUM_THREADS=1 so that it imports numpy with one BLAS
    thread; with one worker they run in this process, one after another. A
    pooled ``fn`` must be a module-level function and its arguments picklable;
    the workers find the modules through the ``sys.path`` that they inherit.
    Spawn, not fork: forking after OpenBLAS has started its threads can hang."""
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*job) for job in jobs]
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # read by each worker as it starts
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
