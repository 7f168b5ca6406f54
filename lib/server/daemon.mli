(** The persistent simulation daemon (GPRS-as-a-service).

    One process holds, across requests: the {!Cache} of decoded +
    superblock-compiled + lint-admitted programs and a shared long-lived
    {!Analysis.Pool} that the bounded admission queue multiplexes run
    execution onto. Identical queued scenarios coalesce into
    one execution fanned out to every requester; load beyond the
    admission bound is shed with a 429-style error instead of queueing
    without limit.

    Protocol: newline-delimited JSON. Requests are objects with an
    ["op"] field — ["run"] (a {!Scenario}, replied to with streamed
    ["queued"]/["start"] progress events and a final ["done"] carrying
    digest/cycles/stats, or ["error"] with a code), ["ping"],
    ["stats"], ["cache_clear"], ["sleep"] (occupies a pool worker; test
    and admission-probe helper), ["fault"] (arm/reset/inspect named
    {!Faults.Points} fault points; gated behind
    [config.allow_fault]), ["shutdown"]. *)

type addr = Tcp of int | Unix_sock of string
(** TCP binds loopback only; [Tcp 0] picks an ephemeral port (see
    {!port}). *)

type config = {
  addr : addr;
  jobs : int;  (** pool worker domains executing requests *)
  depth : int;  (** admission bound: queued-or-running work units *)
  cache_capacity : int;  (** program-cache entries (LRU past it) *)
  idle_quiesce_ms : int;
      (** join the pool's domains after this much idle time
          (0 disables the idle watchdog) *)
  allow_fault : bool;
      (** serve the ["fault"] verb ([serve --allow-fault-injection]);
          off by default — an armed point perturbs every request in the
          process *)
}

val default_config : config
(** Ephemeral loopback TCP, 1 job, depth 64, 32 cache entries, 200 ms
    idle quiesce, fault injection disabled. *)

type t

val start : config -> t
(** Bind and return immediately; the listener, connection readers and
    idle housekeeping run on background systhreads, request execution on
    pool domains. *)

val stop : t -> unit
(** Graceful stop: refuse new work, let in-flight requests finish and
    reply, join the pool's domains, close connections.
    Idempotent. *)

val wait : t -> unit
(** Block until {!stop} is initiated (the [serve] subcommand's body). *)

val bound_addr : t -> addr
val port : t -> int
(** Real bound port ([Tcp 0] resolved); 0 for Unix sockets. *)

val stats_json : t -> Json.t
(** The ["stats"] op's reply (also handy in-process for tests). *)
