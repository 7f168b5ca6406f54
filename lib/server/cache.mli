(** LRU program cache with in-flight build deduplication.

    An entry bundles everything the cold path computes once per
    (workload, build knobs): the {!Run.prepared} program (decode plus
    fused/compiled superblocks) and the lint admission verdict. Sharing
    entries across concurrent runs is sound because programs and
    analyzed blocks are immutable after construction and every run
    copies its inputs into private machine state — see DESIGN.md §7 for
    the determinism argument. *)

type entry = {
  prepared : Run.prepared;
  lint_errors : int;
      (** error-severity GPRS-lint findings ({!Lint.Check.admit}); a
          positive count makes the daemon refuse runs against this
          program, as [gprs_run run] does, with the verdict computed once
          per entry *)
}

type t

val create : capacity:int -> t
(** [capacity] (clamped to >= 1) bounds settled entries; the
    least-recently-used entry is evicted past it. *)

val find : t -> key:string -> build:(unit -> entry) -> entry * bool
(** Hit: bump recency, return [(entry, true)]. Miss: run [build]
    (outside the lock), install, evict LRU past capacity, return
    [(entry, false)]. Concurrent finders of a key being built park until
    the builder installs (and then report a hit), so a burst of
    identical cold requests decodes once. If [build] raises, the slot is
    released and the exception propagates to the one builder. *)

val clear : t -> unit
(** Drop all settled entries (in-flight builds install on completion as
    if they raced the clear). The cold-cache bench leg calls this
    between requests. *)

type stats = {
  length : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
