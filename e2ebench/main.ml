(* End-to-end simulator benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Repeats one seeded simulation of the workload for S seconds of host
   time and prints, as its last line, one JSON object with the keys
   correct / attempted / failed / metrics. --trace 0 times untraced runs
   and reports the end-to-end metrics; --trace 1 alternates untraced
   and traced runs and reports the per-layer metrics. Every run's
   outputs are checked; a failed check prints correct = false with no
   metrics and exits 1. *)

open E2ebench
open Scenarios

let fail_if cond fmt = Printf.ksprintf (fun msg -> if cond then [ msg ] else []) fmt

(* Output checks on one simulation. *)
let check_outcome wl o =
  let c = count o in
  let switch_drops = c "program_drops" + c "other_switch_drops" + c "tm_drops" in
  let balance =
    c "sent" - c "delivered" - switch_drops - c "link_lost" - (c "cross_sent" - c "cross_delivered")
  in
  List.concat
    [
      fail_if (c "sent" = 0) "no packet sent";
      fail_if (balance <> 0) "packet conservation: %d packets unaccounted" balance;
      fail_if (c "cross_sent" <> c "cross_delivered") "%d cross-shard packets still in flight"
        (c "cross_sent" - c "cross_delivered");
      fail_if (needs_no_ties wl && c "tie_arrivals" <> 0) "tie_arrivals = %d" (c "tie_arrivals");
      fail_if (Calc.total o.lat <> c "delivered") "latency samples %d <> delivered %d"
        (Calc.total o.lat) (c "delivered");
      fail_if (c "delivered" > 0 && Calc.beyond o.lat 99. < 10) "fewer than ten samples beyond p99";
    ]

(* Counts that depend on how the fabric is split into shards. *)
let layout_counts = [ "events"; "rounds"; "cross_sent"; "cross_delivered"; "queue_depth_hwm" ]

(* Two runs of one seed must agree on everything simulated; with
   [layout_free], on everything but the shard layout's own counts. *)
let check_same ~what ?(layout_free = false) a b =
  List.concat
    [
      fail_if (a.arrival_digest <> b.arrival_digest) "%s: arrival digest %s <> %s" what
        a.arrival_digest b.arrival_digest;
      fail_if (Calc.digest a.lat <> Calc.digest b.lat) "%s: latency histograms differ" what;
      List.concat_map
        (fun (k, v) ->
          let v' = count b k in
          fail_if (v <> v' && not (layout_free && List.mem k layout_counts)) "%s: count %s %d <> %d"
            what k v v')
        a.counts;
    ]

(* Counts a traced run takes at its own boundaries must agree with the
   switches' and schedulers' public counters. *)
let check_probe o =
  match o.probe with
  | None -> []
  | Some pr ->
      let c = count o in
      let calls cls =
        let n = ref 0 in
        Array.iteri (fun i v -> if i mod n_handler = cls then n := !n + v) pr.h_calls;
        !n
      in
      List.concat
        [
          fail_if (calls 0 <> c "handled_ingress") "ingress calls %d <> handled %d" (calls 0)
            (c "handled_ingress");
          fail_if (calls 1 <> c "handled_enqueue") "enqueue calls %d <> handled %d" (calls 1)
            (c "handled_enqueue");
          fail_if (calls 2 <> c "handled_dequeue") "dequeue calls %d <> handled %d" (calls 2)
            (c "handled_dequeue");
          fail_if (calls 3 <> c "handled_timer") "timer calls %d <> handled %d" (calls 3)
            (c "handled_timer");
          fail_if
            (Array.fold_left ( + ) 0 pr.send_calls <> c "sent")
            "wrapped sends %d <> host sent %d"
            (Array.fold_left ( + ) 0 pr.send_calls)
            (c "sent");
          fail_if
            (sum snd o.callbacks <> c "events")
            "scheduler callbacks %d <> events %d" (sum snd o.callbacks) (c "events");
        ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let us ps = float_of_int ps /. 1e6

(* The run with the median run time (lower median for an even count),
   so a ledger's parts come from one run and add up exactly. *)
let median_run outs =
  let a = Array.of_list outs in
  Array.sort (fun x y -> compare x.run_s y.run_s) a;
  a.((Array.length a - 1) / 2)

let end_to_end ~outs ~rss =
  let o = List.hd outs in
  let r = Calc.report () in
  let med f = Calc.median (List.map f outs) in
  Calc.add r "run_s" ~unit:"s" (med (fun o -> o.run_s));
  Calc.add r "setup_s" ~unit:"s" (med (fun o -> o.setup_s));
  Calc.add r "pkts_per_s" ~unit:"1/s" (med (fun o -> float_of_int (count o "delivered") /. o.run_s));
  Calc.add r "peak_rss_mb" ~unit:"MB" rss;
  Calc.add r "sim_lat_p50_us" ~unit:"us" (us (Calc.percentile o.lat 50.));
  Calc.add r "sim_lat_p99_us" ~unit:"us" (us (Calc.percentile o.lat 99.));
  Calc.add r "delivery_ratio" ~unit:"fraction"
    (float_of_int (count o "delivered") /. float_of_int (count o "sent"));
  r

let callback_classes =
  [ "workload"; "link"; "xlink"; "timer"; "merger.admit"; "switch.decision"; "tm.tx" ]

let per_layer ~workload ~seed ~plain ~traced =
  let u = median_run plain and t = median_run traced in
  let pr = Option.get t.probe in
  let r = Calc.report () in
  let add name unit v = Calc.add r name ~unit v in
  let addi name v = add name "count" (float_of_int v) in
  let ratio ?scale ?offset name unit num den = Calc.add_ratio r name ~unit ?scale ?offset ~num ~den () in
  let c = count t in
  (* simulated totals *)
  addi "sim.pkts_sent" (c "sent");
  addi "sim.pkts_delivered" (c "delivered");
  addi "sim.tie_arrivals" (c "tie_arrivals");
  addi "sim.lat_samples" (Calc.total t.lat);
  let tail = Option.value (Calc.tail_percentile t.lat) ~default:50. in
  add "sim.lat_tail_pct" "%" tail;
  add "sim.lat_tail_us" "us" (us (Calc.percentile t.lat tail));
  (* eventsim *)
  addi "eventsim.events" (c "events");
  ratio "eventsim.events_per_pkt" "1/pkt" "eventsim.events" "sim.pkts_sent";
  let other = ref (c "events") in
  List.iter
    (fun cls ->
      let n = sum snd (List.filter (fun (k, _) -> k = cls) t.callbacks) in
      other := !other - n;
      addi ("eventsim.callbacks." ^ cls) n)
    callback_classes;
  addi "eventsim.callbacks.other" !other;
  addi "eventsim.queue_depth_hwm" (c "queue_depth_hwm");
  add "trace.untraced_run_s" "s" u.run_s;
  ratio ~scale:1e9 "eventsim.ns_per_event" "ns" "trace.untraced_run_s" "eventsim.events";
  add "eventsim.minor_words" "words" u.minor_words;
  ratio "eventsim.minor_words_per_event" "words" "eventsim.minor_words" "eventsim.events";
  (* core: the traced run's time ledger *)
  let handler_ns = Array.fold_left ( + ) 0 pr.h_ns in
  let send_ns = Array.fold_left ( + ) 0 pr.send_ns in
  let recv_ns = Array.fold_left ( + ) 0 pr.recv_ns in
  let run_ns = Float.to_int (Float.round (t.run_s *. 1e9)) in
  addi "core.switch_rx" (c "switch_rx");
  add "core.topology_s" "s" t.topology_s;
  add "core.run_ns" "ns" (float_of_int run_ns);
  add "core.receiver_ns" "ns" (float_of_int recv_ns);
  add "core.residual_ns" "ns"
    (float_of_int (Calc.residual_ns ~run_ns ~children_ns:[ handler_ns; send_ns; recv_ns ]));
  ratio "core.residual_ns_per_event" "ns" "core.residual_ns" "eventsim.events";
  (* devents *)
  addi "devents.empty_carriers" (c "empty_carriers");
  addi "devents.piggybacked" (c "piggybacked");
  addi "devents.carriers" (c "empty_carriers" + c "switch_rx");
  ratio "devents.empty_carrier_share" "fraction" "devents.empty_carriers" "devents.carriers";
  addi "devents.event_drops" (c "event_drops");
  (* apps *)
  Array.iteri
    (fun cls name ->
      let calls = ref 0 and ns = ref 0 in
      Array.iteri
        (fun i v ->
          if i mod n_handler = cls then begin
            calls := !calls + v;
            ns := !ns + pr.h_ns.(i)
          end)
        pr.h_calls;
      addi ("apps.calls." ^ name) !calls;
      add ("apps.ns." ^ name) "ns" (float_of_int !ns);
      ratio ("apps.ns_per_call." ^ name) "ns" ("apps.ns." ^ name) ("apps.calls." ^ name))
    handler_classes;
  add "apps.handler_ns" "ns" (float_of_int handler_ns);
  ratio "apps.handler_share" "fraction" "apps.handler_ns" "core.run_ns";
  (* tmgr *)
  addi "tmgr.enqueues" (c "tm_enqueues");
  addi "tmgr.drops" (c "tm_drops");
  addi "tmgr.offered" (c "tm_enqueues" + c "tm_drops");
  ratio "tmgr.drop_ratio" "fraction" "tmgr.drops" "tmgr.offered";
  addi "tmgr.link_delivered" (c "link_delivered");
  addi "tmgr.link_lost" (c "link_lost");
  (* workloads *)
  let uses_flowgen = c "flows" > 0 in
  addi "workloads.flows" (c "flows");
  addi "workloads.peak_live_flows" (c "peak_live_flows");
  add "workloads.gen_ns" "ns"
    (if uses_flowgen then float_of_int (flowgen_pass_ns ~seed ~flows_per_host:t.flows_per_host)
     else 0.);
  ratio "workloads.gen_ns_per_flow" "ns" "workloads.gen_ns" "workloads.flows";
  add "workloads.send_ns" "ns" (float_of_int send_ns);
  addi "workloads.send_calls" (Array.fold_left ( + ) 0 pr.send_calls);
  ratio "workloads.send_ns_per_pkt" "ns" "workloads.send_ns" "workloads.send_calls";
  add "workloads.install_s" "s" t.install_s;
  (* parsim *)
  addi "parsim.shards" (shards_of workload);
  addi "parsim.rounds" (c "rounds");
  ratio "parsim.events_per_round" "count" "eventsim.events" "parsim.rounds";
  addi "parsim.cross_sent" (c "cross_sent");
  ratio "parsim.cross_share" "fraction" "parsim.cross_sent" "core.switch_rx";
  addi "parsim.max_shard_events" (Array.fold_left max 0 t.shard_events);
  add "parsim.mean_shard_events" "count"
    (float_of_int (Array.fold_left ( + ) 0 t.shard_events) /. float_of_int (Array.length t.shard_events));
  ratio "parsim.shard_imbalance" "ratio" "parsim.max_shard_events" "parsim.mean_shard_events";
  add "parsim.cpu_s" "s" t.cpu_s;
  add "parsim.cpu_wall_s" "s" t.cpu_wall_s;
  ratio "parsim.cpu_per_wall" "ratio" "parsim.cpu_s" "parsim.cpu_wall_s";
  add "parsim.wiring_s" "s" t.wiring_s;
  (* benchmark *)
  add "trace.traced_run_s" "s" t.run_s;
  ratio ~offset:(-1.) "trace.overhead" "fraction" "trace.traced_run_s" "trace.untraced_run_s";
  r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let seed = !seed in
  let sim ~traced =
    Gc.compact ();
    let o = simulate ~workload:wl ~seed ~traced in
    Printf.eprintf "%s seed=%d traced=%b run_s=%.3f cpu_s=%.3f setup_s=%.4f events=%d\n%!" !workload seed
      traced o.run_s o.cpu_s o.setup_s (count o "events");
    o
  in
  (* Each run is checked as it ends and then keeps only what the report
     needs: its histogram, proven equal to the first run's, is shared. *)
  let t0 = clock_s () in
  let failures = ref [] in
  let first = sim ~traced:false in
  failures := check_outcome wl first;
  let keep ~what o =
    failures := !failures @ check_outcome wl o @ check_same ~what first o @ check_probe o;
    { o with lat = first.lat }
  in
  let plain = ref [ first ] and tr = ref [] in
  while List.length !plain < 3 || clock_s () -. t0 < !seconds do
    if traced then tr := keep ~what:"traced" (sim ~traced:true) :: !tr;
    plain := keep ~what:"repeat" (sim ~traced:false) :: !plain
  done;
  let plain = List.rev !plain and tr = List.rev !tr in
  let rss = peak_rss_mb () in
  if wl = Dc_stream_2shard then
    failures :=
      !failures
      @ check_same ~what:"dc-stream vs 2 shards" ~layout_free:true first
          (Gc.compact ();
           simulate ~workload:Dc_stream ~seed ~traced:false);
  let failures = !failures in
  let attempted = sum (fun o -> count o "sent") (plain @ tr) in
  let metrics =
    if failures <> [] then "{}"
    else if traced then Calc.to_json (per_layer ~workload:wl ~seed ~plain ~traced:tr)
    else Calc.to_json (end_to_end ~outs:plain ~rss)
  in
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) failures;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (failures = []) attempted
    (if failures = [] then 0 else attempted)
    metrics;
  exit (if failures = [] then 0 else 1)
