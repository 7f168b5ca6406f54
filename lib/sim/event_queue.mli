(** Pending-event set of the discrete-event simulator.

    A binary min-heap keyed by [(time, priority, sequence)]. The sequence
    number is a monotonically increasing tie-breaker so that events
    scheduled for the same instant and priority fire in insertion order —
    this makes the whole simulation deterministic without relying on heap
    internals. The priority component exists for fused block dispatch:
    engines schedule their per-context ticks at [1 + ctx] so that
    same-time ordering is a function of simulated state alone (system
    events first, then contexts in index order) rather than of {e when}
    each tick happened to be inserted — which is precisely what differs
    between a fused run (tick inserted at block start) and an unfused one
    (tick inserted at the last instruction boundary). Events may be
    cancelled in O(1) (lazy deletion). *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

type handle
(** Names one scheduled event, for cancellation. *)

val create : ?recycle:bool -> unit -> 'a t
(** [recycle] (default [true]) parks popped cells on a per-queue free
    list that later {!schedule}s reuse instead of allocating. Recycling
    is invisible to pop order and to cancellation: a reused cell is
    fully re-initialized, and handles are generation-stamped so a stale
    handle can never cancel the cell's new occupant. Reference runs
    ([reference = true] in an engine config) turn it off. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Live (non-cancelled) event count. *)

val schedule : ?prio:int -> 'a t -> time:Time.cycles -> 'a -> handle
(** [schedule q ~time payload] inserts an event. [time] must be
    [>= now q] if the queue has ever been popped; this is asserted.
    [prio] (default 0) breaks same-time ties before insertion order:
    lower fires first. *)

val cancel : 'a t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op.
    When cancelled cells come to outnumber live ones (beyond a small
    minimum size), the heap is compacted so sift costs track the live
    population rather than the cancellation history. *)

val clear : 'a t -> unit
(** Empty the queue without advancing {!now} — a whole-runtime crash
    discards every pending event but time stays at the crash instant.
    Outstanding handles are invalidated. *)

val heap_size : 'a t -> int
(** Physical heap occupancy, including not-yet-reclaimed cancelled
    cells; [length q <= heap_size q] always. For tests and
    diagnostics. *)

val cell_stats : 'a t -> int * int
(** [(allocated, recycled)] cell counts for this queue: how many
    [schedule] calls built a fresh record vs reused a popped one. *)

val pop : 'a t -> (Time.cycles * 'a) option
(** Removes and returns the earliest live event. [None] when empty. *)

val peek_time : 'a t -> Time.cycles option
(** Time of the earliest live event without removing it. *)

val now : 'a t -> Time.cycles
(** Time of the last popped event (simulation clock); {!Time.zero}
    initially. *)
