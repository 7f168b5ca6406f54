(** GPRS's load-balancing sub-thread scheduler (§3.3), which "actively
    seeks work, minimizing the idle time": per-context deques with
    deterministic round-robin stealing.

    Work items are integers (thread or sub-thread ids). Determinism: steal
    victims are probed in a fixed rotation starting after the thief, so a
    given simulation state always yields the same assignment. *)

type t

val create : n_contexts:int -> t

val enqueue : t -> ctx_hint:int -> int -> unit
(** Make a work item ready. [ctx_hint] is the context whose local deque
    receives it (the context that created or woke the item). *)

val take : t -> ctx:int -> (int * bool) option
(** Next item for an idle context. The boolean is [true] when the item was
    stolen from another context's deque (the caller charges the steal
    cost). [None] at once, probing no deque, when nothing is queued. *)

val remove : t -> int -> bool
(** Remove a specific item wherever it is queued; [true] if found. Used
    when recovery squashes a queued sub-thread. *)

val length : t -> int

val is_empty : t -> bool
