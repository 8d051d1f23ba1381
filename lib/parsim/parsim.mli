(** Sharded parallel simulation backend (§4: distributed data-plane
    state).

    Partitions a declarative {!Evcore.Topology} into per-domain shards
    — one {!Eventsim.Scheduler} plus its switches, hosts and
    intra-shard links per OCaml domain — synchronized conservatively in
    lockstep windows. Each round every shard publishes the timestamp of
    its earliest queued event (or {!Horizon.no_event}); the fleet-wide
    window horizon is then computed identically everywhere. Two modes
    ({!horizon_mode}):

    - {e Adaptive} (default): the horizon is
      [min_j (next_event_j + min cross-link delay out of j)], clamped
      to [until + 1] ({!Horizon.adaptive_bound}). Safe because
      cross-shard sends are staged until the barrier: shard [j] sends
      nothing timestamped before its published next event, and the
      packet still rides a real link delay. Quiescent shards publish
      {!Horizon.no_event} and stop constraining the fleet, so sparse
      traffic advances in a handful of windows instead of serializing
      at min-delay granularity.
    - {e Static}: the classic bound [current + L] where the global
      lookahead [L] is the minimum cross-shard link delay — one window
      of width [L] per round regardless of queue contents.

    A packet crossing shards departs inside some window at or after the
    sender's published next event and arrives at least its link delay
    later, i.e. at or after the shared horizon — no shard ever receives
    an event in its past.

    Each round ends in one {!Barrier.rendezvous}. Before it, every
    shard publishes the head of its queue and, per peer, the earliest
    arrival it sent that peer during the window; from these every shard
    computes the same next-event vector for the following window.
    Cross-shard deliveries travel through bounded {!Spsc} channels
    into one receiver-side FIFO ring per directed cross link, and are
    released after the rendezvous in (arrival time, link, sequence)
    order, each ring under one persistent callback. A shard that finds
    an outbound channel full wakes the receiver and drains its own
    inbound channels while it waits, so backpressure cannot deadlock
    the barrier. When every published next event is past [until] the
    fleet stops — the quiescence vote falls out of the same published
    data.

    [shards = 1] takes the true sequential path — one scheduler, plain
    {!Eventsim.Scheduler.run}, no channels — so a sharded run can be
    conformance-checked against the sequential run of the same seed:
    with the topology builders' per-link delay skew keeping concurrent
    arrivals off the same picosecond, the merged event {!result.trace}
    and merged metrics are byte-identical across shard counts. *)

module Spsc = Spsc
(** Re-exported so the channel is testable/usable on its own. *)

module Horizon = Horizon
(** Re-exported: the pure synchronization-safety arithmetic. *)

module Barrier = Barrier
(** Re-exported: the spin-then-park rendezvous between shard domains. *)

type partition = {
  shards : int;
  shard_of_switch : int array;
  shard_of_host : int array;  (** a host lives with its edge switch *)
  shard_weight : int array;  (** summed switch weights per shard *)
}

val default_weights : Evcore.Topology.t -> int array
(** Expected-event-rate weight per switch: [1 + wired ports + 4 per
    attached host]. Edge switches (hosts, traffic generation, delivery)
    weigh several times a same-degree core switch. *)

val recommended_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count ())] — the shard count
    [shards = 0] resolves to (capped by the switch count). *)

val partition : ?weights:int array -> Evcore.Topology.t -> shards:int -> partition
(** Contiguous blocks of switch ids, balanced by weight ({!default_weights}
    unless [weights] overrides; length must equal the switch count,
    entries non-negative). Boundaries are the nearest-prefix-sum cuts,
    clamped so that no shard is ever empty — arbitrarily skewed weights
    degrade toward the equal-count split instead of producing an empty
    shard. [shards] must be between 1 and the switch count. *)

type cross_link = {
  link : Evcore.Topology.link;
  shard_a : int;  (** shard owning endpoint [a] *)
  shard_b : int;
}

type plan = {
  part : partition;
  local_links : (int * Evcore.Topology.link) list;
      (** (owning shard, link); both endpoints on one shard *)
  cross : cross_link list;
  channels : (int * int) list;
      (** directed (src, dst) shard pairs carrying at least one
          cross-link direction — each gets one SPSC channel *)
  lookahead : Eventsim.Sim_time.t;
      (** static bound: min cross-link delay; effectively infinite when
          nothing crosses (a single window covers the whole run) *)
  pair_delays : (int * int * int) list;
      (** directed (src shard, dst shard, min link delay) for every
          shard pair joined by at least one cross link — the adaptive
          horizon's per-pair reachability data *)
}

val plan : ?weights:int array -> Evcore.Topology.t -> shards:int -> plan

type shard_ctx = {
  shard : int;
  sched : Eventsim.Scheduler.t;
  metrics : Obs.Metrics.t;
  switches : (int * Evcore.Event_switch.t) list;  (** by global id *)
  hosts : (int * Evcore.Host.t) list;
  links : (int * Tmgr.Link.t) list;
      (** intra-shard links by [link_id]; host links are appended after
          switch links with ids [links + host] — valid fault-injection
          targets. Cross-shard links are channel pairs, not [Link.t]s,
          and cannot be failed (a status change cannot honour the
          lookahead contract); restrict chaos to these. *)
}

type horizon_mode =
  | Adaptive  (** per-window bound from published next-event times *)
  | Static  (** fixed windows of the global min cross-link delay *)

type config = {
  shards : int;  (** [0] = auto: {!recommended_domains}, capped by switches *)
  until : Eventsim.Sim_time.t;  (** execute events with time <= until *)
  channel_capacity : int;
  backend : Eventsim.Sched_backend.t option;
      (** per-shard scheduler backend; [None] = [!Sched_backend.default] *)
  horizon : horizon_mode;
  record_trace : bool;
      (** record every switch-port/host packet arrival; the merged
          trace is the conformance artefact (costs allocation — leave
          off for throughput runs) *)
  record_digest : bool;
      (** fold every arrival into the order-independent
          {!result.arrival_digest} instead of retaining entries — the
          conformance artefact for runs whose full trace would not fit
          in memory. O(1) space, no allocation per arrival. *)
  switch_config : int -> Evcore.Event_switch.config;
      (** per-switch; [num_ports] is raised to cover the topology.
          Must not depend on the shard count, or determinism across
          shard counts is forfeit. *)
  program : int -> Evcore.Program.spec;
  on_shard : shard_ctx -> unit;
      (** runs once per shard after wiring, before the clock starts
          (still on the spawning domain): install workloads, faults,
          extra metrics *)
}

val config :
  ?shards:int ->
  ?channel_capacity:int ->
  ?backend:Eventsim.Sched_backend.t ->
  ?horizon:horizon_mode ->
  ?record_trace:bool ->
  ?record_digest:bool ->
  ?on_shard:(shard_ctx -> unit) ->
  until:Eventsim.Sim_time.t ->
  switch_config:(int -> Evcore.Event_switch.config) ->
  program:(int -> Evcore.Program.spec) ->
  unit ->
  config
(** Defaults: 1 shard, capacity 1024, default backend, adaptive
    horizon, no trace, no digest. *)

type shard_time = {
  busy_s : float;
      (** wall seconds executing windows ([drain_until_horizon]), minus
          any wait for channel space inside them *)
  spin_s : float;  (** wall seconds spinning in {!Barrier} waits *)
  parked_s : float;  (** wall seconds parked in {!Barrier} waits *)
  parks : int;  (** times the shard slept on its condition *)
}
(** One shard's wall-time ledger. Wall times differ from run to run, so
    these stay out of {!result.registries} and {!result.metrics_json}. *)

type result = {
  plan : plan;
  rounds_executed : int;
      (** lockstep windows executed (identical on every shard); [1] on
          the sequential path. Adaptive runs on sparse traffic execute
          far fewer rounds than static runs of the same scenario. *)
  events : int;  (** callbacks executed, summed over shards *)
  cross_sent : int;
  cross_delivered : int;  (** < [cross_sent] when [until] cut arrivals off *)
  trace : string list;
      (** merged arrival trace, deterministically ordered by
          (time, entity kind, entity id, per-entity seq); empty unless
          [record_trace] *)
  arrival_digest : string;
      (** 16-hex-digit commutative hash of the arrival multiset — the
          sort key (time, kind, id, per-entity seq) is a total order,
          so the multiset determines the merged trace and the digest
          pins exactly what the trace pins, shard-count independently.
          Empty unless [record_digest]. *)
  tie_arrivals : int;
      (** arrivals observed on the same picosecond as the previous
          arrival at the same entity (counted only when recording).
          Non-zero means the workload violated the no-simultaneous-
          arrivals precondition the conformance guarantee rests on:
          runs at different shard counts may still agree, but are no
          longer guaranteed to. Conformance scenarios should keep
          this at zero (source jitter, link skew). *)
  registries : Obs.Metrics.t list;  (** per shard *)
  metrics_json : string;
      (** {!Obs.Metrics.merged_json} of the per-shard registries:
          per-switch series only (plus whatever [on_shard] added), so a
          sequential and a sharded run are byte-comparable *)
  host_sent : int array;  (** by host id *)
  host_received : int array;
  host_received_bytes : int array;
  wall_s : float;  (** wall-clock of the run phase only *)
  ctxs : shard_ctx array;
  shard_time : shard_time array;
      (** per shard; on the sequential path one entry, all busy *)
}

val run : config -> Evcore.Topology.t -> result
(** Build, execute, merge. Validates the topology; raises
    [Invalid_argument] on a bad shard count. [shards = 0] resolves to
    [min (recommended_domains ()) switches] before planning. *)

val export_shard_time : Obs.Metrics.t -> result -> unit
(** Write {!result.shard_time} into [reg] as [parsim.shard.busy_s],
    [spin_s], [parked_s] and [wall_s] summaries (one observation each)
    and a [parsim.shard.parks] counter, labelled [shards] and [shard].
    Meant for a report registry, never one compared across runs. *)
