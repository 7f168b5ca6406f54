(** Blackscholes (PARSEC): fork/join option pricing.

    Table 2: large computations, low synchronization frequency. Workers
    price a chunk of options with a heavy fixed-point arithmetic kernel;
    prices land in a shared result area covered by the digest. The fine
    grain launches far more threads than contexts — the configuration
    whose Pthreads execution degrades catastrophically in the paper's
    Fig. 9 while GPRS's sub-thread pool absorbs it. *)

val spec : Workload.spec
