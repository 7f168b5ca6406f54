(** The paper's analytic overhead model (§2.3–§2.4).

    Closed-form penalties of checkpoint-and-recovery schemes, used for
    Table 1's qualitative comparison and cross-checked against the
    simulator in the test suite. Notation follows the paper:

    - [t] — checkpoint interval / average sub-thread size (seconds)
    - [n] — hardware contexts; [nc] — communicating subset
    - [tc] — per-context coordination time; [ts] — state-recording time
    - [tw] — state-restore wait; [tr = t + tw] — total restart delay
    - [e] — exception rate (exceptions/second) *)

val cpr_checkpoint_penalty : t:float -> n:int -> tc:float -> ts:float -> float
(** [Pc = 1/t · n · (tc + ts)] — penalty in context-seconds per second. *)

val gprs_checkpoint_penalty : t:float -> n:int -> ts:float -> float
(** Ordering eliminates coordination: [Pc = 1/t · n · ts]. *)

val restart_delay : t:float -> tw:float -> float
(** [tr = t + tw]. *)

val cpr_restart_penalty : n:int -> e:float -> tr:float -> float
(** [Pr = n · e · tr]. *)

val gprs_restart_penalty : e:float -> tr:float -> float
(** Selective restart: [Pr = e · tr]. *)

val gprs_ordering_penalty : t:float -> n:int -> tg:float -> float
(** [Pg = 1/t · n · tg]. *)

val cpr_max_rate : tr:float -> float
(** Completion bound [e <= 1/tr]. *)

val hw_max_rate : n:int -> nc:int -> tr:float -> float
(** [e <= n/nc · 1/tr]. *)

val gprs_max_rate : n:int -> tr:float -> float
(** [e <= n/tr] — the tipping rate scales with the system size, the
    paper's headline scalability claim (validated by Fig. 11). *)

(** {1 Table 1} *)

type related_work_row = {
  proposal : string;
  recovery : string;
  design : string;
  chkpt_cost : string;
  rec_cost : string;
  scalable : string;
  deterministic : string;
  det_cost : string;
}

val table1 : related_work_row list
(** The paper's Table 1 verbatim (qualitative). *)
