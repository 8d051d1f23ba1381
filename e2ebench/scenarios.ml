(* The benchmark's workloads, run whole through [Parsim.run], and the
   instrumentation it owns: wrapped program handlers, a wrapped
   [Host.send], [Host.set_receiver] sinks and the [on_shard] install.
   Everything else is read from public counters after the run. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Host = Evcore.Host
module Event = Devents.Event
module Event_merger = Devents.Event_merger
module Traffic_manager = Tmgr.Traffic_manager
module Link = Tmgr.Link
module Flowgen = Workloads.Flowgen
module Traffic = Workloads.Traffic

type workload = Dc_stream | Dc_stream_2shard | Incast_events

let workloads =
  [ ("dc-stream", Dc_stream); ("dc-stream-2shard", Dc_stream_2shard); ("incast-events", Incast_events) ]

let shards_of = function Dc_stream | Incast_events -> 1 | Dc_stream_2shard -> 2

(* The dc-stream pair is checked for equal arrival digests across shard
   counts, a guarantee that holds only while no entity sees two
   arrivals on one picosecond; those runs must be tie-free. A
   single-shard run fixes the order of same-instant arrivals itself. *)
let needs_no_ties = function Dc_stream | Dc_stream_2shard -> true | Incast_events -> false

let clock_ns () = Int64.to_int (Monotonic_clock.now ())
let clock_s () = float_of_int (clock_ns ()) *. 1e-9

(* Host h owns 10.0.(h lsr 8).(h land 0xff); the low 16 bits recover it. *)
let addr_of_host h = Ipv4_addr.of_octets 10 0 (h lsr 8) (h land 0xff)
let host_of_pkt pkt =
  match pkt.Packet.ip with
  | Some ip -> Some (Ipv4_addr.to_int ip.Netcore.Ipv4.dst land 0xffff)
  | None -> None

let route ~k ~sw pkt =
  match host_of_pkt pkt with
  | Some dst_host -> Topology.fat_tree_route ~k ~sw ~dst_host
  | None -> -1

let switch_config ~seed sw =
  let cfg = Event_switch.default_config Evcore.Arch.sume_event_switch in
  { cfg with Event_switch.seed = seed + (31 * sw) }

(* ------------------------------------------------------------------ *)
(* dc-stream: E27's k=16 fat tree and streaming Zipf mix at a quarter
   of E27's simulated length. Flows arrive until [arrival_stop]; every
   source is halted at [halt] so the fabric drains by [until]. *)

let dc_k = 16
let dc_hosts = dc_k * dc_k * dc_k / 4
let dc_hosts_per_pod = dc_k * dc_k / 4
let dc_until = Sim_time.us 5_600
let dc_arrival_stop = Sim_time.us 2_400
let dc_halt = dc_until - Sim_time.us 100
let dc_rate_pps = 416.7

let dc_spec =
  {
    Flowgen.num_flows = 10_000_000 (* [dc_arrival_stop] ends the chain first *);
    key_space = 400;
    zipf_alpha = 1.1;
    mean_packets = 6.;
    max_packets = 6;
    pkt_bytes = 256;
    arrival_rate_per_sec = 23_750.;
  }

(* Popular ranks stay in the sender's pod; the Zipf tail crosses the core. *)
let dc_dst ~h rank =
  if rank <= 100 then begin
    let base = h / dc_hosts_per_pod * dc_hosts_per_pod in
    base + ((h - base + 1 + (rank mod (dc_hosts_per_pod - 1))) mod dc_hosts_per_pod)
  end
  else (h + dc_hosts_per_pod + (rank * 97 mod (dc_hosts - dc_hosts_per_pod))) mod dc_hosts

let dc_flow ~h rank =
  Netcore.Flow.make ~src:(addr_of_host h)
    ~dst:(addr_of_host (dc_dst ~h rank))
    ~proto:Netcore.Ipv4.proto_udp
    ~src_port:(1024 + (rank land 0xfff))
    ~dst_port:(5000 + (h land 0xfff))
    ()

let host_rng ~seed h = Stats.Rng.create ~seed:(seed + (7919 * h))

(* Live flows are summed per shard at fixed simulated instants; the
   fleet peak is the largest per-instant sum over shards. *)
let dc_probe_times = [ dc_arrival_stop / 2; 3 * dc_arrival_stop / 4; dc_arrival_stop - 1 ]

(* A timed [Flowgen.stream] pass drawing exactly the flows each host
   started during the run, with no network: the generator's own cost. *)
let flowgen_pass_ns ~seed ~flows_per_host =
  let t0 = clock_ns () in
  Array.iteri
    (fun h flows ->
      Flowgen.stream ~rng:(host_rng ~seed h) ~flow_of_rank:(dc_flow ~h)
        { dc_spec with Flowgen.num_flows = flows }
        ~f:(fun _ -> ()))
    flows_per_host;
  clock_ns () - t0

(* ------------------------------------------------------------------ *)
(* incast-events: E23's k=4 fat tree. Every non-victim host sends
   8 Gb/s bursts (30 us on, 30 us off) to one of four victims, three
   senders per victim: about 12 Gb/s offered into each 10 Gb/s path, so
   the ports on the way queue to their cap and drop. Edge switches run
   Apps.Microburst (enqueue / dequeue register updates), the rest
   Apps.Flow_rate (timer). *)

let ic_k = 4
let ic_victims = [| 0; 5; 10; 15 |]
let ic_traffic_stop = Sim_time.us 2_500
let ic_until = Sim_time.us 3_500

let ic_is_edge sw =
  let cores = ic_k * ic_k / 4 in
  sw >= cores && (sw - cores) mod ic_k >= ic_k / 2

(* A per-queue cap bounds every congested port's standing queue. *)
let ic_switch_config ~seed sw =
  let cfg = switch_config ~seed sw in
  {
    cfg with
    Event_switch.tm_config =
      { cfg.Event_switch.tm_config with Traffic_manager.queue_limit_bytes = Some 65_536 };
  }

let ic_program sw : Program.spec =
  if ic_is_edge sw then
    fst (Apps.Microburst.program ~threshold_bytes:20_000 ~out_port:(route ~k:ic_k ~sw) ())
  else
    fst
      (Apps.Flow_rate.program ~slots:64 ~slice:(Sim_time.us 20)
         ~out_port:(route ~k:ic_k ~sw) ())

let dc_program sw : Program.spec =
 fun _ ->
  Program.make ~name:"dc-route"
    ~ingress:(fun _ pkt ->
      match host_of_pkt pkt with
      | Some dst_host -> Program.Forward (Topology.fat_tree_route ~k:dc_k ~sw ~dst_host)
      | None -> Program.Drop)
    ()

(* ------------------------------------------------------------------ *)
(* Boundary probes (traced runs only). Every slot is owned by one
   switch or host, hence by one shard's domain: no sharing. *)

let handler_classes = [| "ingress"; "enqueue"; "dequeue"; "timer" |]
let n_handler = Array.length handler_classes

type probe = {
  h_calls : int array;  (* switch * n_handler + class *)
  h_ns : int array;
  send_calls : int array;  (* by host *)
  send_ns : int array;
  recv_ns : int array;  (* by host *)
}

let make_probe ~switches ~hosts =
  {
    h_calls = Array.make (switches * n_handler) 0;
    h_ns = Array.make (switches * n_handler) 0;
    send_calls = Array.make hosts 0;
    send_ns = Array.make hosts 0;
    recv_ns = Array.make hosts 0;
  }

let wrap_program probe sw (spec : Program.spec) : Program.spec =
 fun ctx ->
  let p = spec ctx in
  (match p with
  | { recirculated = None; generated = None; egress = None; overflow = None; underflow = None;
      transmitted = None; link_change = None; control = None; user = None; _ } -> ()
  | _ -> invalid_arg "e2ebench: a program handler outside the timed classes");
  let timed c f ctx x =
    let i = (sw * n_handler) + c in
    let t0 = clock_ns () in
    let r = f ctx x in
    probe.h_ns.(i) <- probe.h_ns.(i) + (clock_ns () - t0);
    probe.h_calls.(i) <- probe.h_calls.(i) + 1;
    r
  in
  {
    p with
    ingress = timed 0 p.ingress;
    enqueue = Option.map (timed 1) p.enqueue;
    dequeue = Option.map (timed 2) p.dequeue;
    timer = Option.map (timed 3) p.timer;
  }

let send_of probe host =
  match probe with
  | None -> Host.send host
  | Some pr ->
      let h = Host.id host in
      fun pkt ->
        let t0 = clock_ns () in
        Host.send host pkt;
        pr.send_ns.(h) <- pr.send_ns.(h) + (clock_ns () - t0);
        pr.send_calls.(h) <- pr.send_calls.(h) + 1

(* Growable per-shard buffer of one-way latencies (ps). *)
type samples = { mutable buf : int array; mutable len : int }

let push s v =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0 in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- v;
  s.len <- s.len + 1

let set_sinks probe lat (ctx : Parsim.shard_ctx) =
  let s = lat.(ctx.shard) in
  let sched = ctx.sched in
  List.iter
    (fun (h, host) ->
      match probe with
      | None ->
          Host.set_receiver host (fun _ pkt -> push s (Scheduler.now sched - pkt.Packet.created_at))
      | Some pr ->
          Host.set_receiver host (fun _ pkt ->
              let t0 = clock_ns () in
              push s (Scheduler.now sched - pkt.Packet.created_at);
              pr.recv_ns.(h) <- pr.recv_ns.(h) + (clock_ns () - t0)))
    ctx.hosts

(* ------------------------------------------------------------------ *)
(* One simulation. *)

type outcome = {
  setup_s : float;  (* start -> end of the last on_shard install *)
  topology_s : float;
  wiring_s : float;  (* Parsim.run entry -> first install *)
  install_s : float;
  run_s : float;  (* Parsim.result.wall_s *)
  cpu_s : float;  (* process CPU over the run phase *)
  cpu_wall_s : float;  (* wall over the same interval *)
  minor_words : float;
  arrival_digest : string;
  lat : Calc.histogram;
  counts : (string * int) list;  (* simulated, deterministic *)
  shard_events : int array;
  callbacks : (string * int) list;  (* traced only *)
  probe : probe option;
  flows_per_host : int array;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let simulate ~workload ~seed ~traced =
  let shards = shards_of workload in
  let t_start = clock_s () in
  let topo =
    match workload with
    | Dc_stream | Dc_stream_2shard -> Topology.fat_tree ~k:dc_k ()
    | Incast_events -> Topology.fat_tree ~k:ic_k ()
  in
  let t_topo = clock_s () in
  let probe =
    if traced then Some (make_probe ~switches:topo.Topology.switches ~hosts:topo.Topology.hosts)
    else None
  in
  let lat = Array.init shards (fun _ -> { buf = Array.make 4096 0; len = 0 }) in
  let regs = Array.init shards (fun _ -> Obs.Metrics.create ()) in
  let flows_per_host = Array.make topo.Topology.hosts 0 in
  let sources = Array.make topo.Topology.hosts None in
  let live = Array.make_matrix shards (List.length dc_probe_times) 0 in
  let first_install = ref nan and install_s = ref 0. and last_install = ref nan in
  let cpu0 = ref 0. and minor0 = ref 0. in
  let install (ctx : Parsim.shard_ctx) =
    let t0 = clock_s () in
    if Float.is_nan !first_install then first_install := t0;
    set_sinks probe lat ctx;
    if traced then Scheduler.set_metrics ~wall:false ctx.sched regs.(ctx.shard);
    (match workload with
    | Dc_stream | Dc_stream_2shard ->
        let stats =
          List.map
            (fun (h, host) ->
              let st =
                Flowgen.install ~sched:ctx.sched ~rng:(host_rng ~seed h) ~flow_of_rank:(dc_flow ~h)
                  ~arrival_stop:dc_arrival_stop ~rate_pps_per_flow:dc_rate_pps dc_spec
                  ~send:(send_of probe host) ()
              in
              sources.(h) <- Some st;
              st)
            ctx.hosts
        in
        Scheduler.post ~cls:"workload" ctx.sched ~at:dc_halt (fun () -> List.iter Flowgen.halt stats);
        List.iteri
          (fun i at ->
            Scheduler.post ~cls:"workload" ctx.sched ~at (fun () ->
                live.(ctx.shard).(i) <- sum (fun s -> s.Flowgen.live_flows) stats))
          dc_probe_times
    | Incast_events ->
        List.iter
          (fun (h, host) ->
            if not (Array.mem h ic_victims) then begin
              let dst = ic_victims.(h mod Array.length ic_victims) in
              let flow =
                Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
                  ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst) ()
              in
              (* The seed sets each sender's start phase; a per-sender
                 burst rate keeps senders' packet trains from lining up. *)
              let rng = host_rng ~seed h in
              ignore
                (Traffic.on_off ~sched:ctx.sched ~rng ~flow ~pkt_bytes:256
                   ~burst_rate_gbps:(8. +. (0.037 *. float_of_int h))
                   ~on_time:(Sim_time.us 30) ~off_time:(Sim_time.us 30)
                   ~start:(Stats.Rng.int rng (Sim_time.us 30))
                   ~stop:ic_traffic_stop ~send:(send_of probe host) ()
                  : Traffic.t)
            end)
          ctx.hosts);
    let t1 = clock_s () in
    install_s := !install_s +. (t1 -. t0);
    last_install := t1;
    cpu0 := cpu_now ();
    minor0 := (Gc.quick_stat ()).Gc.minor_words
  in
  let program, switch_config, until =
    match workload with
    | Dc_stream | Dc_stream_2shard -> (dc_program, switch_config, dc_until)
    | Incast_events -> (ic_program, ic_switch_config, ic_until)
  in
  let program = match probe with None -> program | Some pr -> fun sw -> wrap_program pr sw (program sw) in
  let cfg =
    Parsim.config ~shards ~record_digest:true ~until ~switch_config:(switch_config ~seed) ~program
      ~on_shard:install ()
  in
  let t_run = clock_s () in
  let r = Parsim.run cfg topo in
  let cpu_s = cpu_now () -. !cpu0 and cpu_wall_s = clock_s () -. !last_install in
  let minor_words = (Gc.quick_stat ()).Gc.minor_words -. !minor0 in
  Array.iteri
    (fun h s -> match s with Some s -> flows_per_host.(h) <- s.Flowgen.flows_started | None -> ())
    sources;
  let all = Array.concat (Array.to_list (Array.map (fun s -> Array.sub s.buf 0 s.len) lat)) in
  let switches = List.concat_map (fun c -> c.Parsim.switches) (Array.to_list r.ctxs) |> List.map snd in
  let links = List.concat_map (fun c -> c.Parsim.links) (Array.to_list r.ctxs) |> List.map snd in
  let tm f = sum (fun sw -> f (Event_switch.tm sw)) switches in
  let mg f = sum (fun sw -> f (Event_switch.merger sw)) switches in
  let handled cls = sum (fun sw -> Event_switch.handled sw cls) switches in
  let counts =
    [
      ("events", r.events);
      ("rounds", r.rounds_executed);
      ("cross_sent", r.cross_sent);
      ("cross_delivered", r.cross_delivered);
      ("tie_arrivals", r.tie_arrivals);
      ("sent", Array.fold_left ( + ) 0 r.host_sent);
      ("delivered", Array.fold_left ( + ) 0 r.host_received);
      ("switch_rx", sum (fun sw -> Event_switch.fired sw Event.Ingress_packet) switches);
      ("program_drops", sum Event_switch.program_drops switches);
      ( "other_switch_drops",
        sum
          (fun sw ->
            Event_switch.unrouted sw + Event_switch.unsupported_actions sw
            + Event_switch.supervised_drops sw + Traffic_manager.egress_drops (Event_switch.tm sw)
            + Event_merger.packet_drops (Event_switch.merger sw)
            + Event_merger.packets_shed (Event_switch.merger sw))
          switches );
      ("tm_enqueues", tm Traffic_manager.enqueues);
      ("tm_drops", tm Traffic_manager.drops);
      ("link_delivered", sum Link.delivered links + r.cross_delivered);
      ("link_lost", sum Link.lost links);
      ("empty_carriers", mg Event_merger.empty_carriers);
      ("piggybacked", mg Event_merger.piggybacked_events);
      ("event_drops", mg (fun m -> sum snd (Event_merger.event_drops m)));
      ("handled_ingress", handled Event.Ingress_packet);
      ("handled_enqueue", handled Event.Buffer_enqueue);
      ("handled_dequeue", handled Event.Buffer_dequeue);
      ("handled_timer", handled Event.Timer_expiration);
      ( "queue_depth_hwm",
        Array.fold_left (fun acc c -> max acc (Scheduler.queue_depth_hwm c.Parsim.sched)) 0 r.ctxs );
      ("flows", Array.fold_left ( + ) 0 flows_per_host);
      ( "peak_live_flows",
        List.fold_left max 0
          (List.init (List.length dc_probe_times) (fun i ->
               Array.fold_left (fun acc row -> acc + row.(i)) 0 live)) );
    ]
  in
  let callbacks =
    if not traced then []
    else
      Array.to_list regs
      |> List.concat_map Obs.Metrics.snapshot
      |> List.filter_map (fun (s : Obs.Metrics.sample) ->
             match (s.name, s.value, List.assoc_opt "class" s.labels) with
             | "scheduler.callbacks", Obs.Metrics.Counter_v n, Some cls -> Some (cls, n)
             | _ -> None)
  in
  {
    setup_s = !last_install -. t_start;
    topology_s = t_topo -. t_start;
    wiring_s = !first_install -. t_run;
    install_s = !install_s;
    run_s = r.wall_s;
    cpu_s;
    cpu_wall_s;
    minor_words;
    arrival_digest = r.arrival_digest;
    lat = Calc.histogram_of_samples all;
    counts;
    shard_events = Array.map (fun c -> Scheduler.executed c.Parsim.sched) r.ctxs;
    callbacks;
    probe;
    flows_per_host;
  }

let count o name = List.assoc name o.counts
