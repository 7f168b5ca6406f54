type kind =
  | Transient_fault
  | Voltage_emergency
  | Approx_recompute
  | Resource_revocation

type event = {
  occurred_at : Sim.Time.cycles;
  ctx : int;
  kind : kind;
  seq : int;
}

type process = Periodic | Poisson

type config = {
  rate : float;
  process : process;
  kinds : kind list;
  seed : int;
}

let all_kinds =
  [ Transient_fault; Voltage_emergency; Approx_recompute; Resource_revocation ]

let default_config =
  { rate = 0.0; process = Periodic; kinds = all_kinds; seed = 1 }

let config ?(process = Periodic) ?(kinds = all_kinds) ?(seed = 1) rate =
  { rate; process; kinds; seed }

type t = {
  cfg : config;
  n_contexts : int;
  cycles_per_second : int;
  prng : Sim.Prng.t;  (* copied on [next]; persistent interface *)
  last : float;  (* last occurrence, in seconds *)
  seq : int;
}

let create cfg ~n_contexts ~cycles_per_second =
  {
    cfg;
    n_contexts;
    cycles_per_second;
    prng = Sim.Prng.create (cfg.seed lxor 0x1A7EC7);
    last = 0.0;
    seq = 0;
  }

let next t =
  if t.cfg.rate <= 0.0 then (t, None)
  else begin
    let prng = Sim.Prng.copy t.prng in
    let gap =
      match t.cfg.process with
      | Periodic -> 1.0 /. t.cfg.rate
      | Poisson -> Sim.Prng.exponential prng ~mean:(1.0 /. t.cfg.rate)
    in
    let at_s = t.last +. gap in
    let occurred_at =
      Sim.Time.of_seconds ~cycles_per_second:t.cycles_per_second at_s
    in
    let ctx = Sim.Prng.int prng t.n_contexts in
    let kinds = Array.of_list t.cfg.kinds in
    let kind = Sim.Prng.choose prng kinds in
    ( { t with prng; last = at_s; seq = t.seq + 1 },
      Some { occurred_at; ctx; kind; seq = t.seq } )
  end
