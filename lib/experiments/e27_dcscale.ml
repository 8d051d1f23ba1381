(* E27 — datacenter scale: k=16 fat tree under a streaming Zipf flow
   mix, plus adaptive-vs-static lookahead on sparse traffic and a
   1000+-switch ring.

   Where E23 pins conformance on a k=4 pod with a handful of CBR
   flows, this experiment is the scale tentpole: 1024 hosts, hundreds
   of thousands of Poisson flow arrivals streamed through
   [Workloads.Flowgen.install] (O(live flows) memory, never
   O(population)), and a packet-arrival population far too large to
   retain as a trace — conformance across shard counts is checked on
   [Parsim]'s O(1)-space order-independent arrival digest instead.
   Three legs:

   - {e conformance + throughput}: the same seeded workload at shard
     counts [1; 2; 4; 8]; every run must produce the sequential run's
     arrival digest and merged metrics byte-for-byte, while we record
     the throughput curve and the peak number of concurrently live
     flows (sampled at fixed simulated instants by per-shard probes).
   - {e sparse}: a k=8 fat tree where 16 hosts send 6 packets each at
     500 us spacing — the workload class where the static
     min-link-delay horizon grinds through thousands of empty windows.
     Adaptive lookahead must finish in measurably fewer rounds.
   - {e ring}: a 1024-switch ring (auto shard count) showing the
     partitioner and engine at 1000+ entities outside the fat-tree
     shape. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Flowgen = Workloads.Flowgen
module Traffic = Workloads.Traffic

let name = "dcscale"
let k = 16
let num_hosts = k * k * k / 4 (* 1024 *)
let hosts_per_pod = k * k / 4 (* 64 *)

let default_shard_counts : int list ref = ref [ 1; 2; 4; 8 ]
(* The CLI's --shards flag narrows this to [1; N]. *)

let topo () = Topology.fat_tree ~k ()

(* Same addressing scheme as E23: host h owns 10.0.(h lsr 8).(h land
   0xff), low 16 bits recover the id. *)
let addr_of_host h = Ipv4_addr.of_octets 10 0 (h lsr 8) (h land 0xff)
let host_of_addr a = Ipv4_addr.to_int a land 0xffff

let routing_program : Program.spec =
 fun _install_ctx ->
  Program.make ~name:"dc-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.fat_tree_route ~k ~sw:ctx.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

let switch_config ~seed sw =
  let cfg = Event_switch.default_config Arch.sume_event_switch in
  { cfg with Event_switch.seed = seed + (31 * sw) }

(* Popular keys (rank <= 100, the bulk of a Zipf-1.1 mix) stay inside
   the sender's pod; the tail crosses pods through the core. The
   mapping depends only on (host, rank) — never on shards. *)
let dst_of ~h rank =
  if rank <= 100 then begin
    let base = h / hosts_per_pod * hosts_per_pod in
    base + ((h - base + 1 + (rank mod (hosts_per_pod - 1))) mod hosts_per_pod)
  end
  else (h + hosts_per_pod + (rank * 97 mod (num_hosts - hosts_per_pod))) mod num_hosts

let flow_of ~h rank =
  Netcore.Flow.make ~src:(addr_of_host h)
    ~dst:(addr_of_host (dst_of ~h rank))
    ~proto:Netcore.Ipv4.proto_udp
    ~src_port:(1024 + (rank land 0xfff))
    ~dst_port:(5000 + (h land 0xfff))
    ()

(* Workload sizing, all simulated-time: flows arrive per host as a
   Poisson process until [arrival_stop], each emitting a capped-Pareto
   number of packets [rate_pps] apart; [until] leaves room for every
   started flow to finish and the fabric to drain. *)
type knobs = {
  until : Sim_time.t;
  arrival_stop : Sim_time.t;
  arrival_rate_per_host : float;
  rate_pps : float;
  mean_packets : float;
  max_packets : int;
  concurrency_target : int;  (** min peak live flows expected; 0 = not checked *)
}

(* ~233k flows fleet-wide, ~115k concurrently live at steady state
   (arrival rate x mean lifetime), ~0.7M packets. The time axis is
   deliberately stretched (packet arrivals ~5 ns apart fleet-wide,
   not sub-ns): picosecond timestamps of independent Poisson sources
   collide birthday-style once arrival density approaches the
   timestamp resolution, and every collision voids the
   no-simultaneous-arrivals precondition the cross-shard conformance
   guarantee rests on ({!Parsim.result.tie_arrivals}). At this
   density the pinned seeds run tie-free; the event count — the thing
   throughput scaling is measured on — is unaffected by the stretch. *)
let full_knobs =
  {
    until = Sim_time.us 22_400;
    arrival_stop = Sim_time.us 9_600;
    arrival_rate_per_host = 23_750.;
    rate_pps = 416.7;
    mean_packets = 6.;
    max_packets = 6;
    concurrency_target = 100_000;
  }

let spec_of knobs =
  {
    Flowgen.num_flows = 10_000_000 (* the arrival_stop cuts the chain first *);
    key_space = 400;
    zipf_alpha = 1.1;
    mean_packets = knobs.mean_packets;
    max_packets = knobs.max_packets;
    pkt_bytes = 256;
    arrival_rate_per_sec = knobs.arrival_rate_per_host;
  }

(* Concurrency is sampled at fixed simulated instants: each shard
   posts one bounded probe per instant summing its sources'
   [live_flows]; the fleet total at instant i is the sum over shards.
   Probes are plain workload events — identical on every shard layout,
   touching no packets, so digests are unaffected. *)
let sample_times knobs =
  let s = knobs.arrival_stop in
  [ s / 2; 3 * s / 4; s - 1; s + ((knobs.until - s) / 4) ]

let num_samples = 4

let install_traffic ~knobs ~seed ~samples ~sources (ctx : Parsim.shard_ctx) =
  let spec = spec_of knobs in
  let shard_sources =
    List.map
      (fun (h, host) ->
        let rng = Stats.Rng.create ~seed:(seed + (7919 * h)) in
        Flowgen.install ~sched:ctx.Parsim.sched ~rng
          ~flow_of_rank:(fun rank -> flow_of ~h rank)
          ~arrival_stop:knobs.arrival_stop ~rate_pps_per_flow:knobs.rate_pps spec
          ~send:(Host.send host) ())
      ctx.Parsim.hosts
  in
  (* on_shard runs on the spawning domain before the clock starts, so
     this accumulation is sequential; the per-shard [samples] row is
     only ever written by the owning shard's domain. *)
  sources := shard_sources @ !sources;
  List.iteri
    (fun i t ->
      Scheduler.post ~cls:"workload" ctx.Parsim.sched ~at:t (fun () ->
          samples.(ctx.Parsim.shard).(i) <-
            List.fold_left (fun acc s -> acc + s.Flowgen.live_flows) 0 shard_sources))
    (sample_times knobs)

let scenario ?(shards = 1) ?backend ?horizon ?(record_digest = true) ?samples ?sources
    ~seed ~knobs () =
  let samples =
    match samples with Some s -> s | None -> Array.make_matrix num_hosts num_samples 0
  in
  let sources = match sources with Some s -> s | None -> ref [] in
  Parsim.config ~shards ?backend ?horizon ~record_digest ~until:knobs.until
    ~switch_config:(switch_config ~seed)
    ~program:(fun _ -> routing_program)
    ~on_shard:(install_traffic ~knobs ~seed ~samples ~sources)
    ()

(* ------------------------------------------------------------------ *)
(* Golden digests: a scaled-down (but still ~15k-flow, 320-switch)
   version of the workload whose arrival digest + merged metrics are
   pinned in test/golden/, exactly the E23-E26 fixture shape. *)

let golden_knobs =
  {
    until = Sim_time.us 300;
    arrival_stop = Sim_time.us 150;
    arrival_rate_per_host = 100_000.;
    rate_pps = 50_000.;
    mean_packets = 3.;
    max_packets = 4;
    concurrency_target = 0;
  }

let golden_seeds = [ 42; 7 ]
let golden_file seed = Printf.sprintf "e27_seed%d.digest" seed

let golden_digests ?backend ?(shards = 1) ~seed () =
  let cfg = scenario ~shards ?backend ~record_digest:true ~seed ~knobs:golden_knobs () in
  let r = Parsim.run cfg (topo ()) in
  [
    ("arrivals", r.Parsim.arrival_digest);
    ("metrics", Digest.to_hex (Digest.string r.Parsim.metrics_json));
  ]

(* ------------------------------------------------------------------ *)
(* Leg 1: conformance + throughput at datacenter size                  *)

type variant = {
  shards : int;
  rounds : int;
  events : int;
  cross_sent : int;
  flows : int;
  packets : int;
  received : int;
  ties : int;
  wall_s : float;
  mev_per_s : float;
  arrival_digest : string;
  metrics_digest : string;
  conformant : bool;  (** digests equal the first (sequential) run's *)
}

type sparse = {
  sp_shards : int;
  static_rounds : int;
  adaptive_rounds : int;
  static_wall : float;
  adaptive_wall : float;
  round_reduction : float;  (** static_rounds / adaptive_rounds *)
}

type ring_leg = {
  rg_switches : int;
  rg_shards : int;  (** resolved from auto *)
  rg_rounds : int;
  rg_events : int;
  rg_received : int;
  rg_wall : float;
}

type result = {
  seed : int;
  knobs : knobs;
  variants : variant list;
  all_conformant : bool;
  peak_live : int;  (** max over sample instants of fleet-wide live flows *)
  concurrency_ok : bool;
  sparse : sparse;
  ring : ring_leg;
}

let run_variant ~knobs ~seed ~shards topo =
  let samples = Array.make_matrix num_hosts num_samples 0 in
  let sources = ref [] in
  let cfg = scenario ~shards ~samples ~sources ~seed ~knobs () in
  let r = Parsim.run cfg topo in
  let peak = ref 0 in
  for i = 0 to num_samples - 1 do
    let total = Array.fold_left (fun acc row -> acc + row.(i)) 0 samples in
    if total > !peak then peak := total
  done;
  let flows = List.fold_left (fun acc s -> acc + s.Flowgen.flows_started) 0 !sources in
  let packets = List.fold_left (fun acc s -> acc + s.Flowgen.packets_sent) 0 !sources in
  (r, !peak, flows, packets)

(* ------------------------------------------------------------------ *)
(* Leg 2: sparse traffic, adaptive vs static lookahead                 *)

let sparse_k = 8
let sparse_hosts = sparse_k * sparse_k * sparse_k / 4 (* 128 *)
let sparse_until = Sim_time.ms 3

let sparse_program : Program.spec =
 fun _ ->
  Program.make ~name:"sparse-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.fat_tree_route ~k:sparse_k ~sw:ctx.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

(* 16 active hosts, 6 packets each at 500 us spacing, cross-pod: the
   event population is tiny and bursty, so the static horizon (one
   min-link-delay window at a time) executes thousands of empty
   barrier rounds that the adaptive bound skips over. *)
let sparse_traffic ~seed:_ (ctx : Parsim.shard_ctx) =
  let gap = Sim_time.us 500 in
  List.iter
    (fun (h, host) ->
      if h mod 8 = 0 then begin
        let dst = (h + (sparse_hosts / sparse_k * 2)) mod sparse_hosts in
        let flow =
          Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
            ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst) ()
        in
        let start = Sim_time.us (10 + h) in
        let stop = start + (5 * gap) + Sim_time.ns 1 in
        (* rate such that cbr's inter-packet gap is exactly 500 us *)
        let rate_gbps = 256. *. 8. /. Sim_time.to_ns gap in
        ignore
          (Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256 ~rate_gbps ~start
             ~stop ~send:(Host.send host) ()
            : Traffic.t)
      end)
    ctx.Parsim.hosts

let sparse_config ~horizon ~seed ~shards =
  Parsim.config ~shards ~horizon ~until:sparse_until
    ~switch_config:(switch_config ~seed)
    ~program:(fun _ -> sparse_program)
    ~on_shard:(sparse_traffic ~seed) ()

let run_sparse ~seed ~shards =
  let topo = Topology.fat_tree ~k:sparse_k () in
  let st = Parsim.run (sparse_config ~horizon:Parsim.Static ~seed ~shards) topo in
  let ad = Parsim.run (sparse_config ~horizon:Parsim.Adaptive ~seed ~shards) topo in
  {
    sp_shards = shards;
    static_rounds = st.Parsim.rounds_executed;
    adaptive_rounds = ad.Parsim.rounds_executed;
    static_wall = st.Parsim.wall_s;
    adaptive_wall = ad.Parsim.wall_s;
    round_reduction =
      float_of_int st.Parsim.rounds_executed
      /. float_of_int (max 1 ad.Parsim.rounds_executed);
  }

(* ------------------------------------------------------------------ *)
(* Leg 3: 1024-switch ring, auto shard count                           *)

let ring_switches = 1024
let ring_until = Sim_time.us 150

let ring_program : Program.spec =
 fun _ ->
  Program.make ~name:"ring-route"
    ~ingress:(fun ctx pkt ->
      match pkt.Packet.ip with
      | Some ip ->
          Program.Forward
            (Topology.ring_route ~switches:ring_switches ~sw:ctx.switch_id
               ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
      | None -> Program.Drop)
    ()

let ring_traffic (ctx : Parsim.shard_ctx) =
  let gap = Sim_time.us 20 in
  List.iter
    (fun (h, host) ->
      let dst = (h + 3) mod ring_switches in
      let flow =
        Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
          ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + (h land 0xfff))
          ~dst_port:(5000 + (dst land 0xfff)) ()
      in
      let start = Sim_time.ns (10 * h) in
      let stop = start + (3 * gap) + Sim_time.ns 1 in
      let rate_gbps = 256. *. 8. /. Sim_time.to_ns gap in
      ignore
        (Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256 ~rate_gbps ~start ~stop
           ~send:(Host.send host) ()
          : Traffic.t))
    ctx.Parsim.hosts

let run_ring ~seed =
  let topo = Topology.ring ~switches:ring_switches () in
  let cfg =
    Parsim.config ~shards:0 (* auto: recommended domain count *) ~until:ring_until
      ~switch_config:(switch_config ~seed)
      ~program:(fun _ -> ring_program)
      ~on_shard:ring_traffic ()
  in
  let r = Parsim.run cfg topo in
  {
    rg_switches = ring_switches;
    rg_shards = r.Parsim.plan.Parsim.part.Parsim.shards;
    rg_rounds = r.Parsim.rounds_executed;
    rg_events = r.Parsim.events;
    rg_received = Array.fold_left ( + ) 0 r.Parsim.host_received;
    rg_wall = r.Parsim.wall_s;
  }

(* ------------------------------------------------------------------ *)

let run ?metrics ?(seed = 42) ?(shard_counts = !default_shard_counts)
    ?(knobs = full_knobs) () =
  let topo = topo () in
  let raw =
    List.map (fun shards -> run_variant ~knobs ~seed ~shards topo) shard_counts
  in
  let ref_digest, ref_metrics =
    match raw with
    | (r, _, _, _) :: _ ->
        (r.Parsim.arrival_digest, Digest.to_hex (Digest.string r.Parsim.metrics_json))
    | [] -> invalid_arg "E27: empty shard_counts"
  in
  let variants =
    List.map
      (fun ((r : Parsim.result), peak, flows, packets) ->
        let arrival_digest = r.arrival_digest in
        let metrics_digest = Digest.to_hex (Digest.string r.metrics_json) in
        let shards = r.plan.Parsim.part.Parsim.shards in
        (match metrics with
        | None -> ()
        | Some reg ->
            let labels = [ ("shards", string_of_int shards) ] in
            Parsim.export_shard_time reg r;
            Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "e27.events") r.events;
            Obs.Metrics.Counter.set
              (Obs.Metrics.counter reg ~labels "e27.peak_live_flows")
              peak);
        {
          shards;
          rounds = r.rounds_executed;
          events = r.events;
          cross_sent = r.cross_sent;
          flows;
          packets;
          received = Array.fold_left ( + ) 0 r.host_received;
          ties = r.tie_arrivals;
          wall_s = r.wall_s;
          mev_per_s = float_of_int r.events /. r.wall_s /. 1e6;
          arrival_digest;
          metrics_digest;
          conformant = arrival_digest = ref_digest && metrics_digest = ref_metrics;
        })
      raw
  in
  let peak_live =
    List.fold_left (fun acc (_, p, _, _) -> max acc p) 0 raw
  in
  {
    seed;
    knobs;
    variants;
    all_conformant = List.for_all (fun v -> v.conformant) variants;
    peak_live;
    concurrency_ok = peak_live >= knobs.concurrency_target;
    sparse = run_sparse ~seed ~shards:4;
    ring = run_ring ~seed;
  }

let print r =
  Report.section
    (Printf.sprintf "E27 / Sec 4 — datacenter scale: k=%d fat tree (%d switches, %d hosts)"
       k (Topology.fat_tree ~k ()).Topology.switches num_hosts);
  Report.kv "seed" (string_of_int r.seed);
  Report.kv "horizon" (Report.time_ps r.knobs.until);
  Report.kv "flow arrivals until" (Report.time_ps r.knobs.arrival_stop);
  Report.blank ();
  Report.table
    ~headers:
      [ "shards"; "rounds"; "events"; "cross msgs"; "flows"; "pkts"; "rx"; "ties"; "wall s"; "Mev/s"; "digest"; "conform" ]
    ~rows:
      (List.map
         (fun v ->
           [
             string_of_int v.shards;
             string_of_int v.rounds;
             string_of_int v.events;
             string_of_int v.cross_sent;
             string_of_int v.flows;
             string_of_int v.packets;
             string_of_int v.received;
             string_of_int v.ties;
             Printf.sprintf "%.2f" v.wall_s;
             Printf.sprintf "%.2f" v.mev_per_s;
             String.sub v.arrival_digest 0 (min 12 (String.length v.arrival_digest));
             (if v.conformant then "ok" else "DIVERGED");
           ])
         r.variants);
  Report.blank ();
  Report.kv "arrival digest and metrics identical across shard counts"
    (if r.all_conformant then "PASS" else "FAIL");
  Report.kv "peak concurrently live flows"
    (Printf.sprintf "%d%s" r.peak_live
       (if r.knobs.concurrency_target > 0 then
          Printf.sprintf " (target >= %d: %s)" r.knobs.concurrency_target
            (if r.concurrency_ok then "PASS" else "FAIL")
        else ""));
  Report.blank ();
  Report.section "sparse leg — adaptive vs static lookahead (k=8, 16 sparse senders)";
  Report.table
    ~headers:[ "horizon"; "rounds"; "wall ms" ]
    ~rows:
      [
        [
          "static";
          string_of_int r.sparse.static_rounds;
          Printf.sprintf "%.1f" (r.sparse.static_wall *. 1e3);
        ];
        [
          "adaptive";
          string_of_int r.sparse.adaptive_rounds;
          Printf.sprintf "%.1f" (r.sparse.adaptive_wall *. 1e3);
        ];
      ];
  Report.kv "round reduction (static / adaptive)"
    (Printf.sprintf "%.1fx %s" r.sparse.round_reduction
       (if r.sparse.adaptive_rounds < r.sparse.static_rounds then "(PASS)" else "(FAIL)"));
  Report.blank ();
  Report.section "ring leg — 1024 switches, auto shard count";
  Report.kv "shards (auto)" (string_of_int r.ring.rg_shards);
  Report.kv "rounds" (string_of_int r.ring.rg_rounds);
  Report.kv "events" (string_of_int r.ring.rg_events);
  Report.kv "packets delivered" (string_of_int r.ring.rg_received);
  Report.kv "wall ms" (Printf.sprintf "%.1f" (r.ring.rg_wall *. 1e3))
