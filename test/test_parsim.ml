(* Sharded parallel backend: partitioning, horizon algebra, SPSC
   channels, windowed draining, and sequential-vs-sharded conformance
   on a small ring. The full-size fat-tree conformance lives in the
   golden suite and E23. *)

module Sim_time = Eventsim.Sim_time
module Scheduler = Eventsim.Scheduler
module Sched_backend = Eventsim.Sched_backend
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Program = Evcore.Program
module Arch = Evcore.Arch
module Host = Evcore.Host
module Packet = Netcore.Packet
module Ipv4_addr = Netcore.Ipv4_addr
module Spsc = Parsim.Spsc
module Horizon = Parsim.Horizon

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)

let test_partition_exactly_once () =
  let topo = Topology.fat_tree ~k:4 () in
  List.iter
    (fun shards ->
      let p = Parsim.partition topo ~shards in
      Alcotest.(check int) "switch array sized" topo.Topology.switches
        (Array.length p.Parsim.shard_of_switch);
      let counts = Array.make shards 0 in
      Array.iter
        (fun s ->
          Alcotest.(check bool) "shard id in range" true (s >= 0 && s < shards);
          counts.(s) <- counts.(s) + 1)
        p.Parsim.shard_of_switch;
      (* Every switch lands in exactly one shard (it has exactly one
         array slot), every shard is populated, and weights balance to
         within one switch's worth: a boundary moved by one switch
         cannot improve the heaviest shard. *)
      let mn = Array.fold_left min max_int counts in
      Alcotest.(check bool) "no empty shard" true (mn >= 1);
      let weights = Parsim.default_weights topo in
      let wmax = Array.fold_left max 0 weights in
      let wmn = Array.fold_left min max_int p.Parsim.shard_weight
      and wmx = Array.fold_left max 0 p.Parsim.shard_weight in
      Alcotest.(check bool) "weight-balanced" true (wmx - wmn <= 2 * wmax);
      let wtotal = Array.fold_left ( + ) 0 weights in
      Alcotest.(check int) "weights conserved" wtotal
        (Array.fold_left ( + ) 0 p.Parsim.shard_weight);
      (* Contiguous blocks: assignments never decrease with switch id. *)
      Array.iteri
        (fun i s ->
          if i > 0 then
            Alcotest.(check bool) "contiguous blocks" true
              (s >= p.Parsim.shard_of_switch.(i - 1)))
        p.Parsim.shard_of_switch;
      (* A host lives with its edge switch. *)
      List.iter
        (fun (at : Topology.attachment) ->
          Alcotest.(check int) "host co-located" p.Parsim.shard_of_switch.(at.switch)
            p.Parsim.shard_of_host.(at.host))
        topo.Topology.attachments)
    [ 1; 2; 3; 4; 5; 20 ]

let test_partition_bad_counts () =
  let topo = Topology.ring ~switches:4 () in
  List.iter
    (fun shards ->
      match Parsim.partition topo ~shards with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "partition accepted %d shards for 4 switches" shards)
    [ 0; -1; 5 ]

let test_plan_link_coverage () =
  let topo = Topology.ring ~switches:6 () in
  let pl = Parsim.plan topo ~shards:3 in
  let part = pl.Parsim.part in
  let seen = Hashtbl.create 16 in
  let claim lid =
    if Hashtbl.mem seen lid then Alcotest.failf "link %d planned twice" lid;
    Hashtbl.add seen lid ()
  in
  List.iter
    (fun (owner, (l : Topology.link)) ->
      claim l.link_id;
      let sa = part.Parsim.shard_of_switch.(fst l.a)
      and sb = part.Parsim.shard_of_switch.(fst l.b) in
      Alcotest.(check int) "local link endpoints co-sharded" sa sb;
      Alcotest.(check int) "local link owner" sa owner)
    pl.Parsim.local_links;
  List.iter
    (fun (c : Parsim.cross_link) ->
      claim c.link.link_id;
      Alcotest.(check int) "shard_a recorded" part.Parsim.shard_of_switch.(fst c.link.a)
        c.shard_a;
      Alcotest.(check int) "shard_b recorded" part.Parsim.shard_of_switch.(fst c.link.b)
        c.shard_b;
      Alcotest.(check bool) "cross link spans shards" true (c.shard_a <> c.shard_b);
      (* Links are bidirectional: each cross link needs a channel
         endpoint in both directions. *)
      List.iter
        (fun dir ->
          Alcotest.(check bool) "channel exists for direction" true
            (List.mem dir pl.Parsim.channels))
        [ (c.shard_a, c.shard_b); (c.shard_b, c.shard_a) ])
    pl.Parsim.cross;
  Alcotest.(check int) "every link planned exactly once"
    (List.length topo.Topology.links)
    (Hashtbl.length seen);
  Alcotest.(check bool) "ring cut produces cross links" true (pl.Parsim.cross <> []);
  (* Channel list is duplicate-free. *)
  Alcotest.(check int) "channels distinct"
    (List.length pl.Parsim.channels)
    (List.length (List.sort_uniq compare pl.Parsim.channels));
  (* Lookahead is the minimum cross-link delay, and the safety bound:
     no cross link is faster. *)
  let min_cross =
    List.fold_left (fun acc (c : Parsim.cross_link) -> min acc c.link.delay) max_int
      pl.Parsim.cross
  in
  Alcotest.(check int) "lookahead = min cross delay" min_cross pl.Parsim.lookahead

let test_plan_single_shard () =
  let topo = Topology.ring ~switches:4 () in
  let pl = Parsim.plan topo ~shards:1 in
  Alcotest.(check int) "no cross links" 0 (List.length pl.Parsim.cross);
  Alcotest.(check (list (pair int int))) "no channels" [] pl.Parsim.channels;
  Alcotest.(check int) "all links local" (List.length topo.Topology.links)
    (List.length pl.Parsim.local_links);
  (* With nothing crossing, one window must cover any realistic run. *)
  Alcotest.(check bool) "lookahead effectively infinite" true
    (pl.Parsim.lookahead > Sim_time.ms 1_000_000)

(* ------------------------------------------------------------------ *)
(* Horizon algebra                                                     *)

let test_horizon_safe () =
  Alcotest.(check int) "no neighbours = unbounded" max_int
    (Horizon.safe ~neighbor_horizons:[] ~lookahead:5);
  Alcotest.(check int) "min over neighbours" 15
    (Horizon.safe ~neighbor_horizons:[ 10; 40; 25 ] ~lookahead:5);
  Alcotest.(check int) "laggard dominates" 7
    (Horizon.safe ~neighbor_horizons:[ 0; 1000 ] ~lookahead:7);
  List.iter
    (fun lookahead ->
      match Horizon.safe ~neighbor_horizons:[ 10 ] ~lookahead with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "lookahead %d accepted" lookahead)
    [ 0; -3 ]

let check_tiling ~until ~lookahead =
  let rounds = Horizon.rounds ~until ~lookahead in
  if rounds * lookahead <= until then
    Alcotest.failf "rounds=%d too few for until=%d L=%d" rounds until lookahead;
  if (rounds - 1) * lookahead > until then
    Alcotest.failf "rounds=%d too many for until=%d L=%d" rounds until lookahead;
  let start0, _ = Horizon.window ~round:0 ~lookahead ~until in
  Alcotest.(check int) "first window starts at 0" 0 start0;
  for r = 0 to rounds - 1 do
    let start, horizon = Horizon.window ~round:r ~lookahead ~until in
    Alcotest.(check bool) "window non-degenerate" true (start < horizon);
    Alcotest.(check bool) "horizon clamped" true (horizon <= until + 1);
    if r < rounds - 1 then
      let start', _ = Horizon.window ~round:(r + 1) ~lookahead ~until in
      Alcotest.(check int) "windows tile" horizon start'
  done;
  let _, last = Horizon.window ~round:(rounds - 1) ~lookahead ~until in
  Alcotest.(check int) "last horizon covers until" (until + 1) last

let test_horizon_tiling () =
  List.iter
    (fun (until, lookahead) -> check_tiling ~until ~lookahead)
    [ (100, 7); (100, 100); (100, 1000); (0, 1); (0, 50); (99, 33); (1_000_000, 1_100_000) ]

let qcheck_horizon_tiling =
  QCheck.Test.make ~count:200 ~name:"horizon windows tile [0, until+1) exactly"
    QCheck.(pair (int_range 0 100_000) (int_range 1 10_000))
    (fun (until, lookahead) ->
      check_tiling ~until ~lookahead;
      (* The conservative rule itself: once every neighbour has
         published round r's start, the safe bound reaches round r's
         horizon. *)
      let r = Horizon.rounds ~until ~lookahead - 1 in
      let start, horizon = Horizon.window ~round:r ~lookahead ~until in
      Horizon.safe ~neighbor_horizons:[ start; start ] ~lookahead >= horizon)

(* ------------------------------------------------------------------ *)
(* Adaptive horizon                                                    *)

let test_adaptive_bound () =
  (* Two shards 5 apart: the bound tracks the earliest next event plus
     the cheapest outgoing edge, never the static tiling. *)
  Alcotest.(check int) "bound follows earliest + delay" 105
    (Horizon.adaptive_bound ~min_out_delays:[| 5; 5 |] ~next_events:[| 100; 250 |]
       ~until:10_000);
  (* A quiescent shard publishes no_event and stops constraining. *)
  Alcotest.(check int) "quiescent shard ignored" 255
    (Horizon.adaptive_bound ~min_out_delays:[| 5; 5 |]
       ~next_events:[| Horizon.no_event; 250 |] ~until:10_000);
  (* Everyone quiescent: one final window closes the run. *)
  Alcotest.(check int) "all quiescent -> until + 1" 10_001
    (Horizon.adaptive_bound ~min_out_delays:[| 5; 5 |]
       ~next_events:[| Horizon.no_event; Horizon.no_event |] ~until:10_000);
  (* No cross links at all (min_out = no_event sentinel). *)
  Alcotest.(check int) "no edges -> until + 1" 10_001
    (Horizon.adaptive_bound ~min_out_delays:[| Horizon.no_event; Horizon.no_event |]
       ~next_events:[| 3; 4 |] ~until:10_000);
  (* Clamped to until + 1 from above. *)
  Alcotest.(check int) "clamped to until+1" 101
    (Horizon.adaptive_bound ~min_out_delays:[| 50 |] ~next_events:[| 90 |] ~until:100);
  match
    Horizon.adaptive_bound ~min_out_delays:[| 1 |] ~next_events:[| 1; 2 |] ~until:10
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

(* The adaptive bound never exceeds the static bound's safety envelope:
   with every next event at or after the fleet clock [cur], the bound
   still satisfies the conservative contract — nothing any shard can
   send lands before it — and it never falls at or below [cur] (every
   round progresses). *)
let qcheck_adaptive_safety =
  QCheck.Test.make ~count:300 ~name:"adaptive bound stays in the safety envelope"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (pair (int_range 0 5_000) (int_range 1 1_000)))
        (int_range 0 50_000))
    (fun (shard_specs, cur) ->
      let next_events =
        Array.of_list (List.map (fun (off, _) -> cur + off) shard_specs)
      in
      let min_out = Array.of_list (List.map snd shard_specs) in
      let until = cur + 100_000 in
      let bound = Horizon.adaptive_bound ~min_out_delays:min_out ~next_events ~until in
      (* Safety: no shard j can deliver before next_events.(j) +
         min_out.(j); the bound is the min of exactly those reaches. *)
      let safe_envelope = ref (until + 1) in
      Array.iteri
        (fun j d -> safe_envelope := min !safe_envelope (next_events.(j) + d))
        min_out;
      bound <= !safe_envelope
      (* Progress: static would give cur + min delay; adaptive gives at
         least that (next events are at or after cur). *)
      && bound > cur
      &&
      let static = min (cur + Array.fold_left min max_int min_out) (until + 1) in
      bound >= static)

(* ------------------------------------------------------------------ *)
(* Weighted partitioning                                               *)

(* Regression: skewed weights must never produce an empty shard — the
   boundary clamp degrades toward the equal-count split instead. *)
let test_partition_skewed_weights () =
  let topo = Topology.ring ~switches:8 () in
  let cases =
    [
      ([| 1000; 1; 1; 1; 1; 1; 1; 1 |], 3);
      ([| 1; 1; 1; 1; 1; 1; 1; 1000 |], 4);
      ([| 0; 0; 0; 0; 0; 0; 0; 0 |], 5);
      ([| 1000; 1000; 0; 0; 0; 0; 1000; 1000 |], 8);
    ]
  in
  List.iter
    (fun (weights, shards) ->
      let p = Parsim.partition ~weights topo ~shards in
      let counts = Array.make shards 0 in
      Array.iter (fun s -> counts.(s) <- counts.(s) + 1) p.Parsim.shard_of_switch;
      Array.iteri
        (fun s c ->
          if c = 0 then
            Alcotest.failf "shard %d empty for weights=%s shards=%d" s
              (String.concat ";" (Array.to_list (Array.map string_of_int weights)))
              shards)
        counts)
    cases;
  (match Parsim.partition ~weights:[| 1; 2 |] topo ~shards:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short weight vector accepted");
  match Parsim.partition ~weights:(Array.make 8 (-1)) topo ~shards:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weights accepted"

let qcheck_partition_never_empty =
  QCheck.Test.make ~count:200 ~name:"weighted partition never yields an empty shard"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 24) (int_range 0 1000))
        (int_range 1 24))
    (fun (weights, shards) ->
      let switches = List.length weights in
      QCheck.assume (shards <= switches);
      let topo = Topology.ring ~switches () in
      let p = Parsim.partition ~weights:(Array.of_list weights) topo ~shards in
      let counts = Array.make shards 0 in
      Array.iter (fun s -> counts.(s) <- counts.(s) + 1) p.Parsim.shard_of_switch;
      Array.for_all (fun c -> c >= 1) counts
      && Array.for_all (fun w -> w >= 0) p.Parsim.shard_weight)

(* ------------------------------------------------------------------ *)
(* SPSC channel                                                        *)

let test_spsc_fifo_and_backpressure () =
  let ch = Spsc.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Spsc.capacity ch);
  List.iter (fun i -> Alcotest.(check bool) "push accepted" true (Spsc.try_push ch i)) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "full channel refuses" false (Spsc.try_push ch 5);
  Alcotest.(check int) "length when full" 4 (Spsc.length ch);
  Alcotest.(check (option int)) "fifo head" (Some 1) (Spsc.try_pop ch);
  Alcotest.(check bool) "slot freed by pop" true (Spsc.try_push ch 5);
  List.iter
    (fun expect -> Alcotest.(check (option int)) "fifo order" (Some expect) (Spsc.try_pop ch))
    [ 2; 3; 4; 5 ];
  Alcotest.(check (option int)) "empty pops None" None (Spsc.try_pop ch);
  Alcotest.(check int) "drained" 0 (Spsc.length ch)

let test_spsc_capacity_rounding () =
  List.iter
    (fun (asked, got) -> Alcotest.(check int) "pow2 round-up" got (Spsc.capacity (Spsc.create ~capacity:asked)))
    [ (1, 1); (2, 2); (3, 4); (5, 8); (1000, 1024) ]

let test_spsc_cross_domain () =
  (* One producer domain, consumer on the main domain: order and
     content survive the domain boundary under backpressure (capacity 8
     forces constant full-channel retries). *)
  let n = 20_000 in
  let ch = Spsc.create ~capacity:8 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push ch i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 in
  let sum = ref 0 in
  while !got < n do
    match Spsc.try_pop ch with
    | Some v ->
        Alcotest.(check int) "in order across domains" !got v;
        sum := !sum + v;
        incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check int) "nothing lost or duplicated" (n * (n - 1) / 2) !sum;
  Alcotest.(check (option int)) "channel empty at the end" None (Spsc.try_pop ch)

(* ------------------------------------------------------------------ *)
(* Barrier                                                             *)

(* Run [f], failing the whole test binary if it has not returned within
   [seconds]: a lost wakeup would otherwise hang the suite. *)
let with_watchdog ~seconds f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        if not (Atomic.get finished) then begin
          prerr_endline (Printf.sprintf "watchdog: no progress after %.0f s, aborting" seconds);
          Unix._exit 3
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

(* More parties than cores, but few enough domains for any machine. *)
let oversubscribed () = min (Domain.recommended_domain_count () + 2) 64

(* [parties] domains run [rounds] rendezvous. Each publishes a per-round
   value into a slot of the round's parity before arriving and checks
   every peer's value after: a barrier that let anyone through early
   (or a peer lap the reader) shows up as a wrong value, a lost wakeup
   as a watchdog abort. Party 0 stalls past the spin budget now and
   then, so spinning peers must park and be woken too. *)
let barrier_stress ~parties ~rounds =
  let bar = Parsim.Barrier.create ~parties in
  let slots = Array.make_matrix 2 parties (-1) in
  let bad = Atomic.make 0 in
  let body p () =
    for r = 0 to rounds - 1 do
      if p = 0 && r mod 500 = 499 then Unix.sleepf 0.003;
      slots.(r land 1).(p) <- (r * parties) + p;
      Parsim.Barrier.rendezvous bar ~party:p;
      for j = 0 to parties - 1 do
        if slots.(r land 1).(j) <> (r * parties) + j then Atomic.incr bad
      done
    done
  in
  with_watchdog ~seconds:60. (fun () ->
      let peers = Array.init (parties - 1) (fun i -> Domain.spawn (body (i + 1))) in
      body 0 ();
      Array.iter Domain.join peers);
  Alcotest.(check int) "every peer's value seen, none lapped" 0 (Atomic.get bad);
  bar

let test_barrier_fits () =
  let parties = max 2 (min (Domain.recommended_domain_count ()) 8) in
  let bar = barrier_stress ~parties ~rounds:5_000 in
  if parties <= Domain.recommended_domain_count () then begin
    Alcotest.(check bool) "spins when parties fit" true (Parsim.Barrier.spins bar);
    (* Party 0's stalls outlast the spin budget: its peers parked. *)
    let parks = ref 0 in
    for p = 1 to parties - 1 do
      parks := !parks + Parsim.Barrier.parks bar ~party:p
    done;
    Alcotest.(check bool) "peers parked through the stalls" true (!parks > 0)
  end

let test_barrier_oversubscribed () =
  let parties = oversubscribed () in
  let bar = barrier_stress ~parties ~rounds:3_000 in
  if parties > Domain.recommended_domain_count () then begin
    Alcotest.(check bool) "no spinning past the core count" false (Parsim.Barrier.spins bar);
    for p = 0 to parties - 1 do
      Alcotest.(check (float 0.)) "no spin time" 0. (Parsim.Barrier.spin_s bar ~party:p)
    done
  end

let test_barrier_handoff () =
  (* The wait/wake protocol alone, under pure parking: two parties of an
     oversubscribed barrier pass items through a capacity-1 channel, and
     each side waits on the other for every item. A lost wakeup stops
     the handoff for good. *)
  let bar = Parsim.Barrier.create ~parties:(oversubscribed ()) in
  let ch = Spsc.create ~capacity:1 and n = 10_000 in
  let sum = ref 0 in
  with_watchdog ~seconds:60. (fun () ->
      let producer =
        Domain.spawn (fun () ->
            for i = 0 to n - 1 do
              Parsim.Barrier.await bar ~party:0 (fun () -> Spsc.try_push ch i);
              Parsim.Barrier.wake bar ~party:1
            done)
      in
      for _ = 1 to n do
        let got = ref (-1) in
        Parsim.Barrier.await bar ~party:1 (fun () ->
            match Spsc.try_pop ch with
            | Some v ->
                got := v;
                true
            | None -> false);
        Parsim.Barrier.wake bar ~party:0;
        sum := !sum + !got
      done;
      Domain.join producer);
  Alcotest.(check int) "every item handed over once" (n * (n - 1) / 2) !sum

(* ------------------------------------------------------------------ *)
(* Windowed draining (the scheduler hook the engine relies on)         *)

let test_drain_until_horizon backend () =
  let sched = Scheduler.create ~backend () in
  let fired = ref [] in
  List.iter
    (fun t -> Scheduler.post sched ~at:t (fun () -> fired := t :: !fired))
    [ 5; 10; 15 ];
  Scheduler.drain_until_horizon sched ~horizon:10;
  (* Strictly-before semantics: the event at the horizon stays queued. *)
  Alcotest.(check (list int)) "only t<10 ran" [ 5 ] (List.rev !fired);
  Alcotest.(check int) "clock parked at horizon" 10 (Scheduler.now sched);
  Alcotest.(check int) "rest still queued" 2 (Scheduler.pending sched);
  (* Draining to the same horizon again is a no-op, and work may still
     be scheduled at the horizon itself — the cross-shard injection
     pattern. *)
  Scheduler.drain_until_horizon sched ~horizon:10;
  Scheduler.post sched ~at:10 (fun () -> fired := 99 :: !fired);
  Scheduler.drain_until_horizon sched ~horizon:16;
  (* Ties run in schedule order: the event queued before the drain
     precedes the one posted at the barrier. *)
  Alcotest.(check (list int)) "horizon event ran next window" [ 5; 10; 99; 15 ]
    (List.rev !fired);
  Alcotest.(check int) "clock at new horizon" 16 (Scheduler.now sched);
  match Scheduler.drain_until_horizon sched ~horizon:12 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "horizon before now accepted"

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let test_topology_validate () =
  let link link_id a b : Topology.link =
    { Topology.link_id; a; b; delay = Sim_time.us 1; detection_delay = None }
  in
  let dup : Topology.t =
    {
      switches = 2;
      hosts = 0;
      links = [ link 0 (0, 1) (1, 1); link 1 (0, 1) (1, 2) ];
      attachments = [];
    }
  in
  (match Topology.validate dup with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate (switch, port) accepted");
  let out_of_range : Topology.t =
    { switches = 2; hosts = 0; links = [ link 0 (0, 1) (2, 1) ]; attachments = [] }
  in
  (match Topology.validate out_of_range with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range switch id accepted");
  (* The builders themselves must pass their own validator. *)
  Topology.validate (Topology.ring ~switches:5 ());
  Topology.validate (Topology.fat_tree ~k:4 ())

(* Port-claim collisions only show at scale: k=16 wires 320 switches /
   2048 links, k=32 wires 1280 / 16384, and the 1024-switch ring
   stresses the skewed-delay accumulation. The validator hashes every
   (switch, port) claim, so a builder bug anywhere in the lattice
   raises. Also pins sizes so a builder regression is loud, and checks
   [Topology.ports] agrees with the quadratic [max_port]. *)
let test_topology_validate_at_scale () =
  let check ~switches ~hosts ~links topo =
    Topology.validate topo;
    Alcotest.(check int) "switches" switches topo.Topology.switches;
    Alcotest.(check int) "hosts" hosts topo.Topology.hosts;
    Alcotest.(check int) "links" links (List.length topo.Topology.links);
    let ports = Topology.ports topo in
    List.iter
      (fun sw ->
        Alcotest.(check int) "ports agrees with max_port"
          (Topology.max_port topo sw + 1)
          ports.(sw))
      [ 0; switches / 2; switches - 1 ]
  in
  (* k-ary fat tree: (k/2)^2 cores + k^2 switches in pods, k^3/4 hosts,
     core-agg k^3/4 + agg-edge k^3/4 links. *)
  check ~switches:320 ~hosts:1024 ~links:2048 (Topology.fat_tree ~k:16 ());
  check ~switches:1280 ~hosts:8192 ~links:16384 (Topology.fat_tree ~k:32 ());
  check ~switches:1024 ~hosts:1024 ~links:1024 (Topology.ring ~switches:1024 ())

(* Follow the deterministic routing function through the topology graph
   and confirm every (source, destination) pair reaches the destination
   host in a bounded number of hops. *)
let check_routing_reaches (topo : Topology.t) ~route ~max_hops =
  let port_map = Hashtbl.create 64 in
  List.iter
    (fun (l : Topology.link) ->
      Hashtbl.replace port_map l.a (`Switch l.b);
      Hashtbl.replace port_map l.b (`Switch l.a))
    topo.links;
  List.iter
    (fun (at : Topology.attachment) ->
      Hashtbl.replace port_map (at.switch, at.port) (`Host at.host))
    topo.attachments;
  List.iter
    (fun (src : Topology.attachment) ->
      for dst = 0 to topo.hosts - 1 do
        let sw = ref src.switch and hops = ref 0 and arrived = ref false in
        while not !arrived do
          incr hops;
          if !hops > max_hops then
            Alcotest.failf "host %d -> %d: no arrival after %d hops" src.host dst max_hops;
          let port = route ~sw:!sw ~dst_host:dst in
          match Hashtbl.find_opt port_map (!sw, port) with
          | Some (`Host h) ->
              Alcotest.(check int) "routed to the right host" dst h;
              arrived := true
          | Some (`Switch (sw', _)) -> sw := sw'
          | None -> Alcotest.failf "switch %d port %d is unwired" !sw port
        done
      done)
    topo.attachments

let test_fat_tree_route_reaches () =
  check_routing_reaches (Topology.fat_tree ~k:4 ()) ~route:(Topology.fat_tree_route ~k:4)
    ~max_hops:5

let test_ring_route_reaches () =
  check_routing_reaches
    (Topology.ring ~switches:5 ())
    ~route:(Topology.ring_route ~switches:5)
    ~max_hops:5

(* ------------------------------------------------------------------ *)
(* End-to-end conformance on a ring                                    *)

let addr_of_host h = Ipv4_addr.of_octets 10 0 0 h
let host_of_addr a = Ipv4_addr.to_int a land 0xff

let ring_config ?backend ?(channel_capacity = 1024) ~shards ~switches ~until () =
  let program : Program.spec =
   fun _ ->
    Program.make ~name:"ring-route"
      ~ingress:(fun ctx pkt ->
        match pkt.Packet.ip with
        | Some ip ->
            Program.Forward
              (Topology.ring_route ~switches ~sw:ctx.Program.switch_id
                 ~dst_host:(host_of_addr ip.Netcore.Ipv4.dst))
        | None -> Program.Drop)
      ()
  in
  Parsim.config ~shards ~channel_capacity ?backend ~record_trace:true ~until
    ~switch_config:(fun sw ->
      let cfg = Event_switch.default_config Arch.sume_event_switch in
      { cfg with Event_switch.seed = 42 + (31 * sw) })
    ~program:(fun _ -> program)
    ~on_shard:(fun ctx ->
      List.iter
        (fun (h, host) ->
          let dst = (h + 1) mod switches in
          let flow =
            Netcore.Flow.make ~src:(addr_of_host h) ~dst:(addr_of_host dst)
              ~proto:Netcore.Ipv4.proto_udp ~src_port:(4000 + h) ~dst_port:(5000 + dst) ()
          in
          ignore
            (Workloads.Traffic.cbr ~sched:ctx.Parsim.sched ~flow ~pkt_bytes:256
               ~rate_gbps:1. ~stop:(until - Sim_time.us 100)
               ~send:(Host.send host) ()
              : Workloads.Traffic.t))
        ctx.Parsim.hosts)
    ()

let run_ring ?backend ?channel_capacity ?(switches = 4) ~shards () =
  let until = Sim_time.us 250 in
  let topo = Topology.ring ~switches () in
  Parsim.run (ring_config ?backend ?channel_capacity ~shards ~switches ~until ()) topo

let check_same_run (seq : Parsim.result) (par : Parsim.result) =
  Alcotest.(check (list string)) "merged traces identical" seq.Parsim.trace par.Parsim.trace;
  Alcotest.(check string) "merged metrics identical" seq.Parsim.metrics_json
    par.Parsim.metrics_json;
  Alcotest.(check (array int)) "per-host receive counts" seq.Parsim.host_received
    par.Parsim.host_received;
  Alcotest.(check (array int)) "per-host sent counts" seq.Parsim.host_sent
    par.Parsim.host_sent

let test_ring_conformance () =
  let seq = run_ring ~shards:1 () in
  Alcotest.(check bool) "traffic flowed" true
    (Array.fold_left ( + ) 0 seq.Parsim.host_received > 0);
  Alcotest.(check bool) "trace recorded" true (seq.Parsim.trace <> []);
  List.iter
    (fun shards ->
      let par = run_ring ~shards () in
      Alcotest.(check bool) "cross-shard messages flowed" true (par.Parsim.cross_sent > 0);
      check_same_run seq par)
    [ 2; 4 ]

let test_ring_backpressure_conformance () =
  (* capacity 1 forces the full-channel wait + self-drain path on
     essentially every cross-shard send; the result must not change.
     Also with more shards than cores, where every wait parks and a
     full channel must wake its parked receiver. *)
  with_watchdog ~seconds:60. (fun () ->
      List.iter
        (fun shards ->
          let switches = max 4 shards in
          let seq = run_ring ~switches ~shards:1 () in
          let par = run_ring ~switches ~shards ~channel_capacity:1 () in
          Alcotest.(check bool) "cross-shard messages flowed" true (par.Parsim.cross_sent > 0);
          check_same_run seq par)
        [ 2; oversubscribed () ])

let test_shard_time_ledger () =
  let seq = run_ring ~shards:1 () in
  Alcotest.(check int) "one sequential entry" 1 (Array.length seq.Parsim.shard_time);
  Alcotest.(check (float 0.)) "sequential run is all busy" seq.Parsim.wall_s
    seq.Parsim.shard_time.(0).Parsim.busy_s;
  let par = with_watchdog ~seconds:60. (fun () -> run_ring ~shards:2 ()) in
  Alcotest.(check int) "one entry per shard" 2 (Array.length par.Parsim.shard_time);
  Array.iter
    (fun (t : Parsim.shard_time) ->
      Alcotest.(check bool) "non-negative" true
        (t.busy_s >= 0. && t.spin_s >= 0. && t.parked_s >= 0. && t.parks >= 0);
      (* The ledger's parts are disjoint intervals of the run phase. *)
      Alcotest.(check bool) "parts fit inside the run" true
        (t.busy_s +. t.spin_s +. t.parked_s <= (par.Parsim.wall_s *. 1.05) +. 1e-3))
    par.Parsim.shard_time

let test_ring_backend_agnostic () =
  (* Same sharded run under both queue backends: byte-identical. *)
  let wheel = run_ring ~backend:Sched_backend.Wheel ~shards:2 () in
  let heap = run_ring ~backend:Sched_backend.Heap ~shards:2 () in
  check_same_run wheel heap

let suite =
  [
    Alcotest.test_case "partition: every switch exactly once" `Quick test_partition_exactly_once;
    Alcotest.test_case "partition: bad shard counts raise" `Quick test_partition_bad_counts;
    Alcotest.test_case "plan: link coverage + channels" `Quick test_plan_link_coverage;
    Alcotest.test_case "plan: single shard" `Quick test_plan_single_shard;
    Alcotest.test_case "partition: skewed weights never empty" `Quick
      test_partition_skewed_weights;
    QCheck_alcotest.to_alcotest qcheck_partition_never_empty;
    Alcotest.test_case "horizon: safe bound" `Quick test_horizon_safe;
    Alcotest.test_case "horizon: window tiling" `Quick test_horizon_tiling;
    Alcotest.test_case "horizon: adaptive bound" `Quick test_adaptive_bound;
    QCheck_alcotest.to_alcotest qcheck_horizon_tiling;
    QCheck_alcotest.to_alcotest qcheck_adaptive_safety;
    Alcotest.test_case "spsc: fifo + backpressure" `Quick test_spsc_fifo_and_backpressure;
    Alcotest.test_case "spsc: capacity rounding" `Quick test_spsc_capacity_rounding;
    Alcotest.test_case "spsc: cross-domain stress" `Quick test_spsc_cross_domain;
    Alcotest.test_case "barrier: parties <= cores" `Quick test_barrier_fits;
    Alcotest.test_case "barrier: parties > cores" `Quick test_barrier_oversubscribed;
    Alcotest.test_case "barrier: parked handoff" `Quick test_barrier_handoff;
    Alcotest.test_case "drain_until_horizon (heap)" `Quick
      (test_drain_until_horizon Sched_backend.Heap);
    Alcotest.test_case "drain_until_horizon (wheel)" `Quick
      (test_drain_until_horizon Sched_backend.Wheel);
    Alcotest.test_case "topology: validate" `Quick test_topology_validate;
    Alcotest.test_case "topology: validate at scale (k=16/k=32/ring-1024)" `Quick
      test_topology_validate_at_scale;
    Alcotest.test_case "fat-tree routing reaches destination" `Quick test_fat_tree_route_reaches;
    Alcotest.test_case "ring routing reaches destination" `Quick test_ring_route_reaches;
    Alcotest.test_case "ring: sharded = sequential" `Quick test_ring_conformance;
    Alcotest.test_case "ring: backpressure conformance" `Quick test_ring_backpressure_conformance;
    Alcotest.test_case "ring: backend agnostic" `Quick test_ring_backend_agnostic;
    Alcotest.test_case "ring: per-shard time ledger" `Quick test_shard_time_ledger;
  ]
