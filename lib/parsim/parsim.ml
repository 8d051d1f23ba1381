module Spsc = Spsc
module Horizon = Horizon
module Barrier = Barrier
module Scheduler = Eventsim.Scheduler
module Topology = Evcore.Topology
module Event_switch = Evcore.Event_switch
module Host = Evcore.Host
module Link = Tmgr.Link

(* ------------------------------------------------------------------ *)
(* Partitioning                                                        *)

type partition = {
  shards : int;
  shard_of_switch : int array;
  shard_of_host : int array;
  shard_weight : int array;
}

(* Expected event rate of a switch: every wired port carries link
   events, and an attached host adds traffic generation, host-link and
   delivery events on top — empirically about a 4x multiplier over a
   plain switch-to-switch port. Edge switches therefore weigh several
   times a same-degree core switch, which is exactly the imbalance the
   contiguous equal-count split got wrong on fat trees. *)
let default_weights (topo : Topology.t) =
  let w = Array.make topo.switches 1 in
  List.iter
    (fun (l : Topology.link) ->
      w.(fst l.a) <- w.(fst l.a) + 1;
      w.(fst l.b) <- w.(fst l.b) + 1)
    topo.links;
  List.iter
    (fun (at : Topology.attachment) -> w.(at.switch) <- w.(at.switch) + 4)
    topo.attachments;
  w

let recommended_domains () = max 1 (Domain.recommended_domain_count ())

let partition ?weights (topo : Topology.t) ~shards =
  if shards < 1 || shards > topo.switches then
    invalid_arg
      (Printf.sprintf "Parsim.partition: %d shards for %d switches" shards topo.switches);
  let w =
    match weights with
    | None -> default_weights topo
    | Some w ->
        if Array.length w <> topo.switches then
          invalid_arg "Parsim.partition: weights length <> switches";
        Array.iter
          (fun x -> if x < 0 then invalid_arg "Parsim.partition: negative weight")
          w;
        w
  in
  let nsw = topo.switches in
  let prefix = Array.make (nsw + 1) 0 in
  for i = 0 to nsw - 1 do
    prefix.(i + 1) <- prefix.(i) + w.(i)
  done;
  let total = prefix.(nsw) in
  let shard_of_switch = Array.make nsw 0 in
  let shard_weight = Array.make shards 0 in
  let cut = ref 0 in
  for s = 0 to shards - 1 do
    let hi =
      if s = shards - 1 then nsw
      else begin
        (* Ideal cumulative weight after this shard, rounded to
           nearest. The boundary is clamped so every shard keeps at
           least one switch and leaves one per remaining shard — a
           skewed weight vector can therefore never produce an empty
           shard, it just degrades toward the equal-count split. *)
        let target = ((total * (s + 1)) + (shards / 2)) / shards in
        let lo = !cut + 1 and cap = nsw - (shards - 1 - s) in
        let e = ref lo in
        while !e < cap && prefix.(!e) < target do
          incr e
        done;
        if !e > lo && target - prefix.(!e - 1) < prefix.(!e) - target then decr e;
        !e
      end
    in
    for sw = !cut to hi - 1 do
      shard_of_switch.(sw) <- s
    done;
    shard_weight.(s) <- prefix.(hi) - prefix.(!cut);
    cut := hi
  done;
  let shard_of_host = Array.make topo.hosts 0 in
  List.iter
    (fun (at : Topology.attachment) -> shard_of_host.(at.host) <- shard_of_switch.(at.switch))
    topo.attachments;
  { shards; shard_of_switch; shard_of_host; shard_weight }

type cross_link = { link : Topology.link; shard_a : int; shard_b : int }

type plan = {
  part : partition;
  local_links : (int * Topology.link) list;
  cross : cross_link list;
  channels : (int * int) list;
  lookahead : Eventsim.Sim_time.t;
  pair_delays : (int * int * int) list;
}

(* With nothing crossing there is no one to wait for: one window covers
   the run ([Horizon.rounds] needs [until + lookahead] to not
   overflow, hence not [max_int]). *)
let infinite_lookahead = max_int / 4

let plan ?weights (topo : Topology.t) ~shards =
  Topology.validate topo;
  let part = partition ?weights topo ~shards in
  let local, cross =
    List.partition_map
      (fun (l : Topology.link) ->
        let sa = part.shard_of_switch.(fst l.a) and sb = part.shard_of_switch.(fst l.b) in
        if sa = sb then Left (sa, l) else Right { link = l; shard_a = sa; shard_b = sb })
      topo.links
  in
  let channels =
    List.concat_map (fun c -> [ (c.shard_a, c.shard_b); (c.shard_b, c.shard_a) ]) cross
    |> List.sort_uniq compare
  in
  let lookahead =
    List.fold_left (fun acc c -> min acc c.link.delay) infinite_lookahead cross
  in
  let pair_delays =
    let tbl = Hashtbl.create 16 in
    let note src dst d =
      match Hashtbl.find_opt tbl (src, dst) with
      | Some d0 when d0 <= d -> ()
      | _ -> Hashtbl.replace tbl (src, dst) d
    in
    List.iter
      (fun c ->
        note c.shard_a c.shard_b c.link.delay;
        note c.shard_b c.shard_a c.link.delay)
      cross;
    Hashtbl.fold (fun (s, d) dl acc -> (s, d, dl) :: acc) tbl [] |> List.sort compare
  in
  { part; local_links = local; cross; channels; lookahead; pair_delays }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type shard_ctx = {
  shard : int;
  sched : Scheduler.t;
  metrics : Obs.Metrics.t;
  switches : (int * Event_switch.t) list;
  hosts : (int * Host.t) list;
  links : (int * Link.t) list;
}

type horizon_mode = Adaptive | Static

type config = {
  shards : int;
  until : Eventsim.Sim_time.t;
  channel_capacity : int;
  backend : Eventsim.Sched_backend.t option;
  horizon : horizon_mode;
  record_trace : bool;
  record_digest : bool;
  switch_config : int -> Event_switch.config;
  program : int -> Evcore.Program.spec;
  on_shard : shard_ctx -> unit;
}

let config ?(shards = 1) ?(channel_capacity = 1024) ?backend ?(horizon = Adaptive)
    ?(record_trace = false) ?(record_digest = false) ?(on_shard = fun _ -> ()) ~until
    ~switch_config ~program () =
  {
    shards;
    until;
    channel_capacity;
    backend;
    horizon;
    record_trace;
    record_digest;
    switch_config;
    program;
    on_shard;
  }

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

(* A packet in flight between shards. [mkey] identifies the directed
   cross-link ([link_id * 2 + direction]); [mround] is the sender's
   window, so the receiver releases exactly that window's messages at
   its barrier even when a faster peer has already sent the next. *)
type message = { mtime : int; mkey : int; mround : int; mpkt : Netcore.Packet.t }

let nil_message = { mtime = 0; mkey = -1; mround = 0; mpkt = Netcore.Packet.nil }

(* Receiver-side FIFO of one directed cross link, the counterpart of
   [Link]'s fly ring. A link's messages arrive in send order with one
   fixed delay, so arrival times never decrease along the ring: the
   first [posted] entries from [head] are queued in the scheduler (each
   under the ring's one persistent callback, which pops the head), the
   rest are staged until their window's barrier. *)
type xring = {
  mutable msgs : message array;  (* capacity: power of two *)
  mutable head : int;
  mutable posted : int;
  mutable len : int;
  mutable cb : unit -> unit;
}

let new_xring () = { msgs = Array.make 8 nil_message; head = 0; posted = 0; len = 0; cb = ignore }

let xring_slot rg k = rg.msgs.((rg.head + k) land (Array.length rg.msgs - 1))

let xring_push rg m =
  let cap = Array.length rg.msgs in
  if rg.len = cap then begin
    let msgs = Array.make (2 * cap) nil_message in
    for k = 0 to rg.len - 1 do
      msgs.(k) <- xring_slot rg k
    done;
    rg.msgs <- msgs;
    rg.head <- 0
  end;
  rg.msgs.((rg.head + rg.len) land (Array.length rg.msgs - 1)) <- m;
  rg.len <- rg.len + 1

let xring_pop rg =
  let m = rg.msgs.(rg.head) in
  rg.msgs.(rg.head) <- nil_message;
  rg.head <- (rg.head + 1) land (Array.length rg.msgs - 1);
  rg.len <- rg.len - 1;
  rg.posted <- rg.posted - 1;
  m

(* One packet arrival, for the conformance trace. Entities live on one
   shard each, so per-entity streams are recorded in execution order;
   the merge sorts on (time, kind, id, per-entity seq) — a total,
   shard-count-independent order as long as concurrent arrivals at
   distinct entities never need a cross-entity tie broken differently
   than the sequential scheduler would (the topology builders' per-link
   delay skew keeps them on distinct picoseconds). *)
type entry = { et : int; ekind : int; eid : int; eseq : int; edetail : string }

type shard_state = {
  mutable ctx : shard_ctx;
  mutable round : int;  (* window being executed; stamps sent messages *)
  sent_min : int array;  (* per peer: earliest arrival sent this window *)
  dirty : int array;  (* mkeys of inbound rings holding staged messages *)
  mutable ndirty : int;
  heap : int array;  (* release scratch: mkeys ordered by staged head *)
  mutable trace : entry list;  (* reversed *)
  mutable digest : int;  (* commutative arrival-multiset accumulator *)
  mutable ties : int;  (* same-instant arrivals at one entity observed *)
  mutable cross_sent : int;
  mutable cross_delivered : int;
  mutable busy_s : float;  (* wall time executing windows, waits excluded *)
}

type engine = {
  n : int;
  until : int;
  adaptive : bool;
  lookahead : int;  (* static bound: global min cross-link delay *)
  min_out : int array;  (* per shard, min delay of outgoing cross links *)
  states : shard_state array;
  chans : message Spsc.t option array array;
  rings : xring array;  (* by mkey; owned by the receiving shard *)
  bar : Barrier.t;
  pub_head : int array;
      (* [slot * n + s]: shard [s]'s earliest queued event after its
         window, published for the rendezvous of that parity *)
  pub_sent : int array;
      (* [(slot * n + s) * n + d]: earliest arrival [s] sent to [d] in
         the same window *)
}

let drain_inbound eng shard =
  let st = eng.states.(shard) in
  for j = 0 to eng.n - 1 do
    match eng.chans.(j).(shard) with
    | None -> ()
    | Some c ->
        let rec pop got =
          match Spsc.try_pop c with
          | None -> got
          | Some m ->
              let rg = eng.rings.(m.mkey) in
              if rg.posted = rg.len then begin
                st.dirty.(st.ndirty) <- m.mkey;
                st.ndirty <- st.ndirty + 1
              end;
              xring_push rg m;
              pop true
        in
        (* The producer may be waiting for the space just freed. *)
        if pop false then Barrier.wake eng.bar ~party:j
  done

(* Producer-side send. On a full channel, wake the receiver (it may be
   parked at the barrier with its inbound full) and wait, draining our
   own inbound — mutual backpressure cannot deadlock. *)
let xsend eng ~src ~dst m =
  match eng.chans.(src).(dst) with
  | None -> assert false
  | Some c ->
      if not (Spsc.try_push c m) then begin
        Barrier.wake eng.bar ~party:dst;
        Barrier.await eng.bar ~party:src (fun () ->
            drain_inbound eng src;
            Spsc.try_push c m)
      end

(* Post every staged message of windows up to [round] in (arrival time,
   link, sequence) order: a k-way merge over the dirty rings, each
   already in sequence order, keyed by (head arrival time, mkey). *)
let release_staged eng shard ~round =
  let st = eng.states.(shard) in
  let staged_head k =
    let rg = eng.rings.(k) in
    xring_slot rg rg.posted
  in
  let less a b =
    let ta = (staged_head a).mtime and tb = (staged_head b).mtime in
    ta < tb || (ta = tb && a < b)
  in
  let heap = st.heap and nh = ref 0 and nd = ref 0 in
  let rec sift i =
    let l = (2 * i) + 1 in
    if l < !nh then begin
      let c = if l + 1 < !nh && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(c) heap.(i) then begin
        let x = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- x;
        sift c
      end
    end
  in
  for i = 0 to st.ndirty - 1 do
    let k = st.dirty.(i) in
    if (staged_head k).mround <= round then begin
      heap.(!nh) <- k;
      incr nh
    end
    else begin
      st.dirty.(!nd) <- k;
      incr nd
    end
  done;
  st.ndirty <- !nd;
  for i = (!nh / 2) - 1 downto 0 do
    sift i
  done;
  while !nh > 0 do
    let k = heap.(0) in
    let rg = eng.rings.(k) in
    Scheduler.post ~cls:"xlink" st.ctx.sched ~at:(staged_head k).mtime rg.cb;
    rg.posted <- rg.posted + 1;
    if not (rg.posted < rg.len && (staged_head k).mround <= round) then begin
      if rg.posted < rg.len then begin
        st.dirty.(st.ndirty) <- k;
        st.ndirty <- st.ndirty + 1
      end;
      decr nh;
      heap.(0) <- heap.(!nh)
    end;
    sift 0
  done

(* Publish what peers need to compute the next window: our queue head
   after this window and, per peer, the earliest arrival we sent it. *)
let publish eng shard ~slot =
  let st = eng.states.(shard) and n = eng.n in
  let p = slot land 1 in
  let h = Scheduler.next_time st.ctx.sched in
  eng.pub_head.((p * n) + shard) <- (if h < 0 then Horizon.no_event else h);
  for d = 0 to n - 1 do
    eng.pub_sent.((((p * n) + shard) * n) + d) <- st.sent_min.(d);
    st.sent_min.(d) <- Horizon.no_event
  done

(* Every shard's earliest event once the published window's messages
   are released: its own queue head, or the earliest arrival any peer
   sent it — exactly what its scheduler will report after release. *)
let next_events eng ~slot nexts =
  let n = eng.n and p = slot land 1 in
  for j = 0 to n - 1 do
    let v = ref eng.pub_head.((p * n) + j) in
    for i = 0 to n - 1 do
      v := min !v eng.pub_sent.((((p * n) + i) * n) + j)
    done;
    nexts.(j) <- !v
  done

(* The lockstep round loop of one shard. Returns the number of rounds
   (windows) it executed — identical on every shard, since every horizon
   and the stop verdict are computed from identically published data.

   One rendezvous per round:
   {ol
   {- Read every shard's next event from the last publication
      ({!next_events}). If even the earliest is past [until], every
      shard sees it and stops — a quiescent fleet publishes only
      [Horizon.no_event]s.}
   {- Otherwise execute one window up to the shared horizon: adaptive
      ([Horizon.adaptive_bound] — safe because staged release means a
      shard sends nothing before its published next event) or static
      ([cur + min cross delay], the classic bound).}
   {- Publish queue head and per-peer earliest send into the slot of
      this round's parity, then rendezvous, draining inbound while
      waiting. A peer cannot overwrite the slot before we read it: it
      would first have to pass the next rendezvous, which waits for
      us.}
   {- Pop the rest of this window's messages (every push
      happens-before its sender's arrival) and release them.}} *)
let run_shard eng shard =
  let st = eng.states.(shard) in
  let sched = st.ctx.sched in
  let poll () = drain_inbound eng shard in
  let nexts = Array.make eng.n 0 in
  publish eng shard ~slot:0;
  Barrier.rendezvous eng.bar ~party:shard ~poll;
  let r = ref 0 and cur = ref 0 and stop = ref false in
  while not !stop do
    next_events eng ~slot:!r nexts;
    let earliest = Array.fold_left min Horizon.no_event nexts in
    if earliest > eng.until then stop := true
    else begin
      let horizon =
        if eng.adaptive then
          Horizon.adaptive_bound ~min_out_delays:eng.min_out ~next_events:nexts
            ~until:eng.until
        else min (!cur + eng.lookahead) (eng.until + 1)
      in
      (* Progress is structural: the bound sits past the earliest
         published event, so every round retires at least one event
         fleet-wide (or closes the run). *)
      assert (horizon > !cur);
      st.round <- !r;
      let t0 = Unix.gettimeofday () and w0 = Barrier.waited_s eng.bar ~party:shard in
      Scheduler.drain_until_horizon sched ~horizon;
      st.busy_s <-
        st.busy_s
        +. (Unix.gettimeofday () -. t0)
        -. (Barrier.waited_s eng.bar ~party:shard -. w0);
      publish eng shard ~slot:(!r + 1);
      Barrier.rendezvous eng.bar ~party:shard ~poll;
      drain_inbound eng shard;
      release_staged eng shard ~round:!r;
      cur := horizon;
      incr r
    end
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Build + run                                                         *)

type shard_time = { busy_s : float; spin_s : float; parked_s : float; parks : int }

type result = {
  plan : plan;
  rounds_executed : int;
  events : int;
  cross_sent : int;
  cross_delivered : int;
  trace : string list;
  arrival_digest : string;
  tie_arrivals : int;
  registries : Obs.Metrics.t list;
  metrics_json : string;
  host_sent : int array;
  host_received : int array;
  host_received_bytes : int array;
  wall_s : float;
  ctxs : shard_ctx array;
  shard_time : shard_time array;
}

(* Order-independent arrival digest. The full trace's sort key
   (t, kind, id, seq) is a total order — [seq] is unique per entity —
   so the multiset of arrival records determines the merged trace and
   vice versa. Hashing each record into a commutative accumulator
   (sum mod 2^62) therefore pins exactly what the trace pins, without
   retaining millions of entries: per-shard sums merge in any order and
   the result is shard-count independent. Field nesting (not xor of
   independent hashes) keeps permuted field values from colliding. *)
let digest_arrival ~t ~kind ~id ~seq ~port ~len ~fkey =
  let mix = Netcore.Hashes.mix64 in
  mix (t + mix (kind + mix (id + mix (seq + mix (port + mix (len + mix fkey))))))

let digest_add st ~t ~kind ~id ~seq ~port ~len ~fkey =
  st.digest <- (st.digest + digest_arrival ~t ~kind ~id ~seq ~port ~len ~fkey) land max_int

let flow_detail pkt =
  match Netcore.Packet.flow pkt with
  | Some f -> Format.asprintf "len=%d %a" (Netcore.Packet.len pkt) Netcore.Flow.pp f
  | None -> Printf.sprintf "len=%d" (Netcore.Packet.len pkt)

let compare_entry a b =
  match compare a.et b.et with
  | 0 -> (
      match compare a.ekind b.ekind with
      | 0 -> ( match compare a.eid b.eid with 0 -> compare a.eseq b.eseq | c -> c)
      | c -> c)
  | c -> c

let render_entry e =
  Printf.sprintf "t=%d %s=%d seq=%d %s" e.et (if e.ekind = 0 then "sw" else "host") e.eid e.eseq
    e.edetail

let run cfg (topo : Topology.t) =
  (* [shards = 0] means auto: one shard per recommended domain, capped
     by the switch count. *)
  let n =
    if cfg.shards = 0 then min (recommended_domains ()) topo.switches else cfg.shards
  in
  let pl = plan topo ~shards:n in
  let backend = match cfg.backend with None -> !Eventsim.Sched_backend.default | Some b -> b in
  let scheds = Array.init n (fun _ -> Scheduler.create ~backend ()) in
  let sched_of_sw sw = scheds.(pl.part.shard_of_switch.(sw)) in
  let nports = Topology.ports topo in
  let switches =
    Array.init topo.switches (fun sw ->
        let cfg_sw = cfg.switch_config sw in
        let cfg_sw =
          {
            cfg_sw with
            Event_switch.num_ports = max cfg_sw.Event_switch.num_ports nports.(sw);
          }
        in
        Event_switch.create ~sched:(sched_of_sw sw) ~id:sw ~config:cfg_sw
          ~program:(cfg.program sw) ())
  in
  let hosts =
    Array.init topo.hosts (fun h ->
        Host.create ~sched:scheds.(pl.part.shard_of_host.(h)) ~id:h ())
  in
  (* Mutable wiring state, then frozen into shard contexts. *)
  let shard_switches = Array.make n [] and shard_hosts = Array.make n [] in
  Array.iteri
    (fun sw esw ->
      let s = pl.part.shard_of_switch.(sw) in
      shard_switches.(s) <- (sw, esw) :: shard_switches.(s))
    switches;
  Array.iteri
    (fun h host ->
      let s = pl.part.shard_of_host.(h) in
      shard_hosts.(s) <- (h, host) :: shard_hosts.(s))
    hosts;
  (* Each shard receives one ring per inbound cross-link direction; a
     ring sits at most once in its [dirty] set, which bounds both
     arrays. *)
  let inbound = Array.make n 0 in
  List.iter
    (fun c ->
      inbound.(c.shard_a) <- inbound.(c.shard_a) + 1;
      inbound.(c.shard_b) <- inbound.(c.shard_b) + 1)
    pl.cross;
  let states =
    Array.init n (fun s ->
        {
          ctx =
            {
              shard = s;
              sched = scheds.(s);
              metrics = Obs.Metrics.create ();
              switches = List.rev shard_switches.(s);
              hosts = List.rev shard_hosts.(s);
              links = [];
            };
          round = 0;
          sent_min = Array.make n Horizon.no_event;
          dirty = Array.make inbound.(s) 0;
          ndirty = 0;
          heap = Array.make inbound.(s) 0;
          trace = [];
          digest = 0;
          ties = 0;
          cross_sent = 0;
          cross_delivered = 0;
          busy_s = 0.;
        })
  in
  let chans = Array.make_matrix n n None in
  List.iter
    (fun (src, dst) -> chans.(src).(dst) <- Some (Spsc.create ~capacity:cfg.channel_capacity))
    pl.channels;
  let n_links = List.length topo.links in
  let min_out = Array.make n Horizon.no_event in
  List.iter
    (fun (src, _dst, d) -> if d < min_out.(src) then min_out.(src) <- d)
    pl.pair_delays;
  let eng =
    {
      n;
      until = cfg.until;
      adaptive = (cfg.horizon = Adaptive);
      lookahead = pl.lookahead;
      min_out;
      states;
      chans;
      (* Only cross-link directions get a ring of their own (below). *)
      rings = Array.make (2 * n_links) (new_xring ());
      bar = Barrier.create ~parties:n;
      pub_head = Array.make (2 * n) Horizon.no_event;
      pub_sent = Array.make (2 * n * n) Horizon.no_event;
    }
  in
  (* Trace hooks: per-entity sequence numbers are global arrays, but
     each entity is touched by exactly one shard's domain. *)
  let sw_seq = Array.make topo.switches 0 and host_seq = Array.make topo.hosts 0 in
  (* Same-instant arrival detector: the conformance order (time, kind,
     id, seq) is layout-independent only while no entity sees two
     arrivals on one picosecond — the precondition the topology
     builders' link skew and the workloads' jitter exist to uphold.
     When a workload violates it anyway, the runs may still agree, but
     the guarantee is gone; recording the count makes the hazard
     observable instead of a silent digest mismatch. *)
  let sw_last_t = Array.make topo.switches min_int
  and host_last_t = Array.make topo.hosts min_int in
  let record = cfg.record_trace || cfg.record_digest in
  let sw_rx shard sw port pkt =
    let st = states.(shard) in
    if record then begin
      let seq = sw_seq.(sw) in
      sw_seq.(sw) <- seq + 1;
      let t = Scheduler.now st.ctx.sched in
      if t = sw_last_t.(sw) then st.ties <- st.ties + 1;
      sw_last_t.(sw) <- t;
      if cfg.record_trace then
        st.trace <-
          {
            et = t;
            ekind = 0;
            eid = sw;
            eseq = seq;
            edetail = Printf.sprintf "port=%d %s" port (flow_detail pkt);
          }
          :: st.trace;
      if cfg.record_digest then
        digest_add st ~t ~kind:0 ~id:sw ~seq ~port ~len:(Netcore.Packet.len pkt)
          ~fkey:(Netcore.Packet.flow_key pkt)
    end;
    Event_switch.inject switches.(sw) ~port pkt
  in
  let host_rx shard h pkt =
    let st = states.(shard) in
    if record then begin
      let seq = host_seq.(h) in
      host_seq.(h) <- seq + 1;
      let t = Scheduler.now st.ctx.sched in
      if t = host_last_t.(h) then st.ties <- st.ties + 1;
      host_last_t.(h) <- t;
      if cfg.record_trace then
        st.trace <-
          { et = t; ekind = 1; eid = h; eseq = seq; edetail = flow_detail pkt }
          :: st.trace;
      if cfg.record_digest then
        digest_add st ~t ~kind:1 ~id:h ~seq ~port:(-1) ~len:(Netcore.Packet.len pkt)
          ~fkey:(Netcore.Packet.flow_key pkt)
    end;
    Host.deliver hosts.(h) pkt
  in
  let sw_endpoint shard sw port =
    {
      Link.deliver = (fun pkt -> sw_rx shard sw port pkt);
      notify_status = (fun ~up -> Event_switch.link_status switches.(sw) ~port ~up);
    }
  in
  (* Intra-shard links: real [Tmgr.Link]s — fault-injection capable. *)
  List.iter
    (fun (s, (l : Topology.link)) ->
      let sw_a, port_a = l.a and sw_b, port_b = l.b in
      let link =
        Link.create ~sched:scheds.(s) ~delay:l.delay ?detection_delay:l.detection_delay
          ~a:(sw_endpoint s sw_a port_a) ~b:(sw_endpoint s sw_b port_b) ()
      in
      Event_switch.set_port_tx switches.(sw_a) ~port:port_a (fun pkt ->
          Link.send link ~from_a:true pkt);
      Event_switch.set_port_tx switches.(sw_b) ~port:port_b (fun pkt ->
          Link.send link ~from_a:false pkt);
      states.(s).ctx <- { (states.(s).ctx) with links = (l.link_id, link) :: states.(s).ctx.links })
    pl.local_links;
  (* Host links are intra-shard by construction. *)
  List.iter
    (fun (at : Topology.attachment) ->
      let s = pl.part.shard_of_host.(at.host) in
      let host_ep =
        { Link.deliver = (fun pkt -> host_rx s at.host pkt); notify_status = (fun ~up:_ -> ()) }
      in
      let link =
        Link.create ~sched:scheds.(s) ~delay:at.host_delay ~a:host_ep
          ~b:(sw_endpoint s at.switch at.port) ()
      in
      Host.set_tx hosts.(at.host) (fun pkt -> Link.send link ~from_a:true pkt);
      Event_switch.set_port_tx switches.(at.switch) ~port:at.port (fun pkt ->
          Link.send link ~from_a:false pkt);
      states.(s).ctx <-
        { (states.(s).ctx) with links = (n_links + at.host, link) :: states.(s).ctx.links })
    topo.attachments;
  (* Cross-shard links: each direction is a sender closure computing
     the arrival timestamp (now + delay — exactly [Link.send]'s fast
     path) and a receiver-side ring whose one callback delivers the
     ring's head. They cannot fail: no perturbation, no status change.
     An arrival past [until] would never be released, so it is counted
     as sent and dropped at the sender. *)
  List.iter
    (fun c ->
      let l = c.link in
      let wire ~src ~dst ~mkey (sw_from, port_from) (sw_to, port_to) =
        let rg = new_xring () and rst = states.(dst) in
        rg.cb <-
          (fun () ->
            let m = xring_pop rg in
            rst.cross_delivered <- rst.cross_delivered + 1;
            sw_rx dst sw_to port_to m.mpkt);
        eng.rings.(mkey) <- rg;
        Event_switch.set_port_tx switches.(sw_from) ~port:port_from (fun pkt ->
            let st = states.(src) in
            st.cross_sent <- st.cross_sent + 1;
            let mtime = Scheduler.now st.ctx.sched + l.delay in
            if mtime <= eng.until then begin
              if mtime < st.sent_min.(dst) then st.sent_min.(dst) <- mtime;
              xsend eng ~src ~dst { mtime; mkey; mround = st.round; mpkt = pkt }
            end)
      in
      wire ~src:c.shard_a ~dst:c.shard_b ~mkey:(2 * l.link_id) l.a l.b;
      wire ~src:c.shard_b ~dst:c.shard_a ~mkey:((2 * l.link_id) + 1) l.b l.a)
    pl.cross;
  (* Freeze link lists into link-id order for ctx consumers. *)
  Array.iter
    (fun st ->
      st.ctx <-
        { (st.ctx) with links = List.sort (fun (a, _) (b, _) -> compare a b) st.ctx.links })
    states;
  Array.iter (fun st -> cfg.on_shard st.ctx) states;
  let t0 = Unix.gettimeofday () in
  let rounds_executed =
    if n = 1 then begin
      (* True sequential path: no windows, no channels, no barriers. *)
      Scheduler.run ~until:cfg.until scheds.(0);
      1
    end
    else begin
      let others = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> run_shard eng (i + 1))) in
      let r0 = run_shard eng 0 in
      Array.iter (fun d -> ignore (Domain.join d : int)) others;
      r0
    end
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Array.iter
    (fun st ->
      List.iter (fun (_, sw) -> Event_switch.export_metrics sw st.ctx.metrics) st.ctx.switches)
    states;
  let registries = Array.to_list (Array.map (fun st -> st.ctx.metrics) states) in
  let trace =
    if not cfg.record_trace then []
    else
      Array.fold_left (fun acc (st : shard_state) -> List.rev_append st.trace acc) [] states
      |> List.sort compare_entry
      |> List.map render_entry
  in
  let arrival_digest =
    if not cfg.record_digest then ""
    else
      Printf.sprintf "%016x"
        (Array.fold_left (fun acc (st : shard_state) -> (acc + st.digest) land max_int) 0 states)
  in
  {
    plan = pl;
    rounds_executed;
    events = Array.fold_left (fun acc s -> acc + Scheduler.executed s) 0 scheds;
    cross_sent = Array.fold_left (fun acc (st : shard_state) -> acc + st.cross_sent) 0 states;
    cross_delivered = Array.fold_left (fun acc (st : shard_state) -> acc + st.cross_delivered) 0 states;
    trace;
    arrival_digest;
    tie_arrivals =
      Array.fold_left (fun acc (st : shard_state) -> acc + st.ties) 0 states;
    registries;
    metrics_json = Obs.Metrics.merged_json registries;
    host_sent = Array.map Host.sent hosts;
    host_received = Array.map Host.received hosts;
    host_received_bytes = Array.map Host.received_bytes hosts;
    wall_s;
    ctxs = Array.map (fun st -> st.ctx) states;
    shard_time =
      (if n = 1 then [| { busy_s = wall_s; spin_s = 0.; parked_s = 0.; parks = 0 } |]
       else
         Array.mapi
           (fun s (st : shard_state) ->
             {
               busy_s = st.busy_s;
               spin_s = Barrier.spin_s eng.bar ~party:s;
               parked_s = Barrier.parked_s eng.bar ~party:s;
               parks = Barrier.parks eng.bar ~party:s;
             })
           states);
  }

let export_shard_time reg (r : result) =
  let shards = string_of_int (Array.length r.shard_time) in
  Array.iteri
    (fun s t ->
      let labels = [ ("shards", shards); ("shard", string_of_int s) ] in
      let secs name v = Obs.Metrics.Summary.observe (Obs.Metrics.summary reg ~labels name) v in
      secs "parsim.shard.wall_s" r.wall_s;
      secs "parsim.shard.busy_s" t.busy_s;
      secs "parsim.shard.spin_s" t.spin_s;
      secs "parsim.shard.parked_s" t.parked_s;
      Obs.Metrics.Counter.set (Obs.Metrics.counter reg ~labels "parsim.shard.parks") t.parks)
    r.shard_time
