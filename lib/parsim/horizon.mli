(** Conservative-synchronization horizon algebra.

    Pure arithmetic behind the lockstep engine, factored out so the
    safety rule is unit-testable on its own. The conservative
    guarantee: a shard whose neighbours have published execution
    horizons [h_j] may itself execute strictly below
    [min_j (h_j + lookahead)] — any cross-shard packet sent by
    neighbour [j] departs at or after [h_j]'s window and arrives no
    earlier than departure + lookahead, so nothing can land in the
    executing shard's past.

    The lockstep engine tiles simulated time into windows. In {e
    static} mode the width is the global minimum cross-link delay
    [lookahead]: round [r] covers [[r*L, min((r+1)*L, until+1))]. When
    every shard has published horizon [r*L], the safe bound is
    [r*L + L], which is exactly the next window's end — the whole fleet
    advances one window per round.

    In {e adaptive} mode each round starts with every shard knowing
    every shard's earliest pending event ([no_event] for an empty
    queue), derived from what each published at the previous barrier.
    Because cross-shard messages are staged and
    released only at the window barrier, every packet shard [j] sends
    during the coming window departs at or after [j]'s published next
    event [n_j] and lands no earlier than [n_j + d] for the cheapest
    cross link out of [j]. The fleet-wide bound
    [min_j (n_j + min_out_delay_j)] is therefore safe, and — computed
    by every shard from the same published array — identical
    everywhere, which preserves the lockstep rendezvous. Quiescent
    shards publish [no_event] and stop constraining the fleet: sparse
    traffic no longer serializes at min-delay granularity. *)

val no_event : int
(** Sentinel a quiescent shard publishes as its next-event time. Larger
    than any real timestamp, small enough that [no_event + delay] never
    overflows. *)

val adaptive_bound : min_out_delays:int array -> next_events:int array -> until:int -> int
(** [min_j (next_events.(j) + min_out_delays.(j))] clamped from above
    to [until + 1]. Entries of [min_out_delays] at or above [no_event]
    mean "shard [j] has no cross link into anyone" and are skipped, as
    effectively are shards whose [next_events] is [no_event]. With all
    shards quiescent (or no cross links at all) the bound is
    [until + 1]: one final window closes out the run. Never below
    [min_j next_events.(j) + 1] when some constraining edge exists, so
    a round always makes progress past the earliest published event.
    Raises [Invalid_argument] on array length mismatch. *)

val safe : neighbor_horizons:int list -> lookahead:int -> int
(** [min_j (h_j + lookahead)]; [max_int] with no neighbours (an
    unpartitioned run has no one to wait for). Raises
    [Invalid_argument] when [lookahead <= 0] — zero lookahead means no
    shard could ever advance. *)

val rounds : until:int -> lookahead:int -> int
(** Number of windows tiling [[0, until]]: smallest [r] with
    [r * lookahead > until]. *)

val window : round:int -> lookahead:int -> until:int -> int * int
(** [(start, horizon)] of a round: [start = min(round*L, until+1)] and
    [horizon = min((round+1)*L, until+1)]. Consecutive windows tile
    [[0, until+1)] exactly: window [r]'s horizon is window [r+1]'s
    start. *)
