(** Spin-then-park rendezvous for a fixed set of domains.

    Every party owns one slot: an arrival generation, a "parked" flag
    and a mutex/condition pair. {!rendezvous} bumps the caller's
    generation and waits until every party has reached it. {!await} is
    the underlying wait, usable for any predicate over shared atomic
    state (the parallel engine also waits on it for channel space).

    A waiting party first spins on [Domain.cpu_relax] for about 1 ms of
    wall time, but only when the parties fit on the machine
    ([parties <= Domain.recommended_domain_count ()]); with more
    parties than cores a spinner would hold the core a peer needs, so
    it parks at once. Parking registers in the party's flag, re-checks
    the predicate, then sleeps on its condition. A peer that changes
    shared state calls {!wake}, which signals only a registered waiter —
    no lock, no syscall while nobody is parked.

    No wakeup is lost: the waiter stores its flag before re-checking the
    predicate and the waker changes state before loading the flag (all
    through SC atomics), so at least one of them sees the other. *)

type t

val create : parties:int -> t
(** [parties >= 1]. *)

val spins : t -> bool
(** Whether waits spin before parking: [parties] does not exceed
    [Domain.recommended_domain_count ()]. *)

val await : t -> party:int -> (unit -> bool) -> unit
(** [await t ~party ready] returns once [ready ()] holds. [ready] is
    re-run after every spin and every wakeup, so it may do useful work
    (the engine drains its inbound channels there); it must only read
    state that peers publish through atomics before they call {!wake}. *)

val wake : t -> party:int -> unit
(** Signal [party] if it is parked; a no-op (one atomic load) otherwise.
    Call it after publishing the change the party may be waiting for. *)

val rendezvous : ?poll:(unit -> unit) -> t -> party:int -> unit
(** Arrive (wake every parked peer) and wait until every party has
    arrived as often as the caller. [poll] runs on every re-check. *)

(** {1 Per-party wait ledger}

    Accumulated over every {!await} of a party, read after its domain
    has been joined. *)

val spin_s : t -> party:int -> float
(** Wall seconds spent spinning. *)

val parked_s : t -> party:int -> float
(** Wall seconds from the first park of a wait to its end. *)

val parks : t -> party:int -> int
(** Times the party slept on its condition. *)

val waited_s : t -> party:int -> float
(** [spin_s + parked_s]. *)
