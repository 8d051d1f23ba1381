(** The benchmark's own arithmetic: latency percentiles, the per-layer
    time ledger, medians and ratio metrics reported with their bases. *)

(** {1 Latency histogram} *)

type histogram
(** Exact multiset of integer samples (simulated picoseconds), stored
    as sorted (value, count) runs. *)

val histogram_of_samples : int array -> histogram
val total : histogram -> int

val runs : histogram -> (int * int) list
(** (value, count) in ascending value order. *)

val digest : histogram -> string
(** Hex MD5 of the runs: equal iff the multisets are equal. *)

val percentile : histogram -> float -> int
(** Nearest-rank percentile: the smallest sample whose rank is at
    least [ceil (p / 100 * total)]. [p] in (0, 100]. Raises
    [Invalid_argument] on an empty histogram. *)

val beyond : histogram -> float -> int
(** Samples ranked strictly after [percentile h p]'s rank:
    [total - ceil (p / 100 * total)]. *)

val ladder : float list
(** Percentiles considered for the tail, highest first. *)

val tail_percentile : histogram -> float option
(** The highest percentile of {!ladder} with at least ten samples
    beyond it; [None] when even the median has fewer. *)

(** {1 Time ledger} *)

val residual_ns : run_ns:int -> children_ns:int list -> int
(** [run_ns] minus the time of the timed child calls: what the
    benchmark's boundaries cannot attribute. *)

(** {1 Summaries} *)

val median : float list -> float
(** Mean of the two middle values for an even count. Raises
    [Invalid_argument] on an empty list. *)

(** {1 Reports} *)

type report
(** Named metrics with units, in insertion order. A ratio is added only
    after the metrics it is computed from, so it never appears without
    its base. *)

val report : unit -> report
val add : report -> string -> unit:string -> float -> unit
(** Raises [Invalid_argument] if the name is already present. *)

val add_ratio :
  report -> string -> unit:string -> ?scale:float -> ?offset:float -> num:string -> den:string -> unit -> unit
(** [scale * value num / value den + offset] (0 when the base is 0). Raises
    [Invalid_argument] unless both [num] and [den] are already in the
    report. *)

val value : report -> string -> float
(** Raises [Not_found]. *)

val metrics : report -> (string * float * string) list
(** (name, value, unit) in insertion order. *)

val bases : report -> (string * (string * string)) list
(** Each ratio with its (numerator, denominator) names. *)

val to_json : report -> string
(** [{"name": {"value": v, "unit": "u"}, ...}] with every digit of
    [v] kept. *)
