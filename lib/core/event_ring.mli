(** The GPRS engine's typed event ring: a bounded record of the
    scheduling events at the sub-thread boundary (a thread made runnable,
    a token grant, a park at a sync point, a context fill).

    A ring is created off and costs nothing while off: each recording
    function tests one flag, builds no string and allocates nothing.
    {!enable} preallocates the storage. The engine enables the ring of a
    run when [GPRS_DEBUG] is set; tests enable their own and hand it to
    {!Engine.run}. Recording never changes a simulated result. The ring
    is printed only by the engine's wedge dump on a run that did not
    complete. *)

type event =
  | Make_runnable of { tid : int; queued : bool; on_ctx : bool; destroyed : bool }
      (** a thread was offered to the scheduler; the flags are the state
          that decided whether it was enqueued *)
  | Grant of { tid : int; instr : string; pc : int }
      (** the ordering token performed [instr] for [tid] *)
  | Park of { tid : int; instr : string; pc : int }
      (** [tid] reached a sync point and left its context *)
  | Fill of { ctx : int; tid : int; wait : Vm.Tcb.wait }
      (** the scheduler handed [tid] to context [ctx] *)

type t

val create : unit -> t
(** An off ring: records nothing and holds no storage. *)

val enable : t -> capacity:int -> unit
(** Allocate room for the newest [capacity] (at least 1) events, clear
    the ring and start recording. *)

val enabled : t -> bool

val make_runnable :
  t -> at:int -> tid:int -> queued:bool -> on_ctx:bool -> destroyed:bool -> unit

val grant : t -> at:int -> tid:int -> Vm.Isa.instr -> pc:int -> unit
val park : t -> at:int -> tid:int -> Vm.Isa.instr -> pc:int -> unit
val fill : t -> at:int -> ctx:int -> tid:int -> Vm.Tcb.wait -> unit

val recorded : t -> int
(** Events recorded since {!enable}, including those overwritten. *)

val to_list : t -> (int * event) list
(** The retained events with their simulated cycle, oldest first. *)

val pp_event : Format.formatter -> event -> unit
