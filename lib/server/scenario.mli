(** The wire codec over {!Run}: a run request is a {!Run.t} scenario,
    and everything else here — the record, the name tables, the keys,
    {!Run.exec} and {!Run.run} — is {!Run}'s, so a daemon-served result
    is the one-shot result by construction. *)

include module type of struct
  include Run
end

val of_json : Json.t -> (t, string) result
(** Decode a run request; every field except [workload] has the CLI's
    default. Rejects an unknown engine, ordering or grain, fewer than
    one context, a scale {!Run.check_scale} refuses, a rate
    {!Run.check_rate} refuses, and an interval that is not finite and
    greater than 0. *)

val to_json : t -> Json.t
(** Encode as a run request (includes ["op":"run"]). *)

val outcome_to_json : outcome -> Json.t
