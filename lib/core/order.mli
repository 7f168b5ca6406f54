(** Deterministic ordering schedules for sub-threads (the order enforcer).

    The token designates which thread may pass its next synchronization
    point; passing a sync point consumes one turn and advances the token.
    Three schemes from §3.2 of the paper:

    - {!Round_robin}: a uniform rotation over all live threads in creation
      order — simple, but it dissolves pipeline parallelism (the paper's
      Pbzip2 example, Fig. 7a).
    - {!Balance_aware}: threads are rotated hierarchically — round-robin
      across {e thread groups} (one group per computation type, supplied
      through the extended create API), and round-robin among the threads
      within a group (Fig. 7b).
    - {!Weighted}: balance-aware, but group [g] receives
      [group_weights.(g)] consecutive turns per rotation, letting early
      pipeline stages run ahead (the paper's 4:4:1 Pbzip2 weighting).

    Threads that cannot take a turn until some other thread's turn occurs
    (condition-variable sleepers, barrier waiters, joiners) are marked
    ineligible and are skipped; a computing thread is eligible, so the
    token waits for it — that wait is the ordering overhead the paper
    measures. *)

type scheme =
  | Round_robin
  | Balance_aware
  | Weighted
  | Recorded
      (** The paper's §2.4 alternative: no order is {e enforced} — threads
          pass synchronization points on arrival — but the dynamic order
          is {e recorded} (sub-thread ids are allocated in arrival order),
          which still supports selective restart. Determinism across runs
          is forfeited; the ordering wait disappears. Under this scheme
          the rotation machinery is inert: {!holder} is always [None]. *)

type t

val create : scheme -> group_weights:int array -> t

val scheme : t -> scheme

val add_thread : t -> tid:int -> group:int -> unit
(** Threads join their group's rotation in creation order. Under
    {!Round_robin} the group is ignored (a single rotation). Tids index
    an array, so they must be non-negative; a negative or duplicate tid,
    or a group out of range, raises [Invalid_argument]. *)

val remove_thread : t -> int -> unit
(** Thread exited or was destroyed by recovery. *)

val set_eligible : t -> int -> bool -> unit

val is_eligible : t -> int -> bool

val mem : t -> int -> bool
(** Is the thread currently in the order table? Cold restart uses this to
    tell a cleanly-exited thread from one whose crash struck between its
    [Done] transition and its removal from the table. *)

val live_count : t -> int

val holder : t -> int option
(** The designated thread: the first eligible live thread at or after the
    cursor, scanning groups in rotation order. [None] if no thread is
    eligible. Does not mutate the rotation. Memoized: the scan reruns
    only after a call that can change its answer. *)

val advance : t -> granted:int -> unit
(** Consume the turn just granted to [granted]: the thread's group cursor
    moves past it and, when the group's turn budget is exhausted, the
    rotation proceeds to the next group. *)
